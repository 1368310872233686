"""One benchmark child process: set up a workload, then run it.

    python3 perfbench/child.py WORKLOAD SEED SECONDS MODE

MODE is ``setup`` (set up and stop), ``run`` (passes over the jobs, untraced,
as many as fit in SECONDS, at least one) or ``traced`` (one pass under the
tracer).  Every pass runs each job beside the calibration loop.  The child
runs from the root of a checkout with that checkout's ``src`` as its only
PYTHONPATH entry.  Its last line of standard output is a JSON object; job
output is captured and never reaches it.
"""

import gc
import json
import os
import resource
import shutil
import sys
import time
import traceback
import tracemalloc

import matsuo

import calibration
import workloads
from tracer import Tracer


def _calibrate():
    gc.collect()
    return calibration.loop()


def run_pass(jobs):
    """Run every job once; a failing or raising job is recorded, never fatal.

    The calibration loop runs before the first job and after each job, and
    every job carries the mean of the two loop times beside it.  Garbage is
    collected before each job and each loop, so the memory a job leaves in
    reference cycles does not depend on the seeded job order."""
    results = []
    wall = time.perf_counter()
    before = _calibrate()
    for job in jobs:
        gc.collect()
        job.info = {}
        start, start_cpu = time.perf_counter(), time.process_time()
        try:
            got = job.run()
        except Exception:
            got = {"error": traceback.format_exc(limit=3)}
        took, took_cpu = time.perf_counter() - start, time.process_time() - start_cpu
        after = _calibrate()
        entry = {"job": job.name, "ok": got == job.expected, "info": job.info,
                 "wall_s": took, "cpu_s": took_cpu, "cal_s": (before + after) / 2}
        before = after
        if not entry["ok"]:
            entry["got"] = got
            entry["expected"] = job.expected
        results.append(entry)
    return {"wall_s": time.perf_counter() - wall, "jobs": results}


def main(argv):
    workload, seed, seconds, mode = argv[0], int(argv[1]), float(argv[2]), argv[3]
    checkout = os.getcwd()
    src = os.path.realpath(os.path.join(checkout, "src"))
    if not os.path.realpath(matsuo.__file__).startswith(src + os.sep):
        sys.stderr.write("matsuo was imported from %s, not from %s\n"
                         % (matsuo.__file__, src))
        return 2
    work_root = os.path.join(checkout, ".bench_work")
    workdir = os.path.join(work_root, str(os.getpid()))
    os.makedirs(workdir)
    try:
        jobs = workloads.build(workload, seed, workdir)
        out = {"ready": time.monotonic(), "passes": [], "env": {
            "hash_seed": os.environ.get("PYTHONHASHSEED"),
            "coset_budget": matsuo.groups._coset_budget(),
            "tracing_memory": tracemalloc.is_tracing(),
        }}
        if mode == "traced":
            tracer = Tracer()
            tracer.install(extra_modules=[workloads])
            try:
                out["passes"].append(run_pass(jobs))
            finally:
                tracer.uninstall()
            out["trace"] = tracer.metrics()
        elif mode == "run":
            # Start a pass only if it should end within SECONDS, judged by
            # the last one; the first pass always runs.
            start = time.monotonic()
            while (not out["passes"] or time.monotonic() - start
                   + out["passes"][-1]["wall_s"] <= seconds):
                out["passes"].append(run_pass(jobs))
        elif mode != "setup":
            raise ValueError("unknown mode %r" % (mode,))
        out["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(work_root)
        except OSError:
            pass
    sys.stdout.write(json.dumps(out, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
