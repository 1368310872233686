"""Benchmark of the matsuo workbench: four workloads, verdict-gated.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: verify-claims, jordan-scan, coset-enum, build-axes (see
``workloads.py``, ``interactions.json`` and README.md).  Every workload runs
in a fresh child process, one job at a time in a closed loop, with
PYTHONHASHSEED=0 and without MATSUO_MAX_COSETS, so the default coset budget
applies.

Every job and every set-up is timed beside the calibration loop of
``calibration.py``, and its time is divided by the loop's, so that a shared
machine that runs everything slower for a while moves both alike.  The
quotients are reported times ``calibration.REFERENCE_S``: seconds at the
reference speed.

``--trace 0`` reports the end-to-end metrics listed in BENCHMARK.json:
set-up time (median over several fresh children), the time of one pass made
of each job's median over the passes that fit in S seconds, and the peak
resident size of the measuring child.  ``--trace 1`` runs the untraced passes
and then one traced pass in another child, and reports the per-layer
metrics: the traced spans and counters, the raw wall and CPU time of a pass,
the calibration loop's time and ``trace.overhead_ratio``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Every job's verdict is checked
against its expected value; a wrong or raising job counts as failed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import calibration

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_SAMPLES = 11  # fresh children timed to their first job, per run
TIME_LIMIT_S = 170  # a run ends within this, or fails


class ChildFailed(Exception):
    pass


def child_env(root):
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.path.join(root, "src")
    env.pop("MATSUO_MAX_COSETS", None)
    env.pop("PYTHONTRACEMALLOC", None)
    return env


def spawn(root, args, mode, deadline):
    """Run one fresh child; returns its result with ``setup_s``, the wall
    time from spawn to its first job, added."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"), args.workload,
           str(args.seed), str(args.seconds), mode]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=root, env=child_env(root), text=True,
                              capture_output=True, timeout=deadline - start)
    except subprocess.TimeoutExpired as err:
        raise ChildFailed("%s child ran past the time limit" % mode) from err
    if proc.returncode != 0:
        raise ChildFailed("%s child exited with %d:\n%s"
                          % (mode, proc.returncode, proc.stderr))
    result = json.loads(proc.stdout.splitlines()[-1])
    result["mode"] = mode
    result["setup_s"] = result["ready"] - start
    return result


def tally(children):
    jobs = [j for c in children for p in c["passes"] for j in p["jobs"]]
    return len(jobs), sum(1 for j in jobs if not j["ok"])


def describe(children):
    """Each job's verdicts and times over the passes of each child."""
    for child in children:
        passes = child["passes"]
        walls = [p["wall_s"] for p in passes]
        print("%s: %d passes, median %.3f s wall" % (child["mode"], len(passes),
                                                  statistics.median(walls)))
        for i, first in enumerate(passes[0]["jobs"]):
            runs = [p["jobs"][i] for p in passes]
            failed = [j for j in runs if not j["ok"]]
            info = " ".join("%s=%s" % kv for kv in sorted(first["info"].items()))
            print("  %s median %.3f s wall, %.3f s at reference speed  %s %s"
                  % ("FAIL" if failed else "ok  ",
                     statistics.median(j["wall_s"] for j in runs),
                     statistics.median(calibrated(j) for j in runs),
                     first["job"], info))
            for job in failed[:1]:
                print("    expected %s\n    got      %s" % (job["expected"], job["got"]))


def scaled(took, cal):
    """A time measured beside a calibration loop time, in seconds at the
    reference speed."""
    return took / cal * calibration.REFERENCE_S


def calibrated(job):
    """A job's wall time in seconds at the reference speed."""
    return scaled(job["wall_s"], job["cal_s"])


def median_pass(passes, value):
    """One pass made of each job's median over the passes of a run, where
    ``value(job)`` is the quantity summed."""
    return sum(statistics.median(value(p["jobs"][i]) for p in passes)
               for i in range(len(passes[0]["jobs"])))


def setup_samples(root, args, deadline):
    """Set-up times of fresh children, each scaled by the calibration loop
    run in this process just before and just after it."""
    before = calibration.loop()
    samples = []
    for _ in range(SETUP_SAMPLES):
        took = spawn(root, args, "setup", deadline)["setup_s"]
        after = calibration.loop()
        samples.append(scaled(took, (before + after) / 2))
        before = after
    return samples


def end_to_end(root, args, deadline):
    setup = statistics.median(setup_samples(root, args, deadline))
    run = spawn(root, args, "run", deadline)
    values = {
        "setup_s": setup,
        "run_s": median_pass(run["passes"], calibrated),
        "peak_rss_mib": run["peak_rss_kib"] / 1024,
    }
    return [run], values


def per_layer(root, args, deadline):
    run = spawn(root, args, "run", deadline)
    traced = spawn(root, args, "traced", deadline)
    values = dict(traced["trace"])
    values["raw.run_s"] = median_pass(run["passes"], lambda j: j["wall_s"])
    values["raw.cpu_s"] = median_pass(run["passes"], lambda j: j["cpu_s"])
    values["raw.calibration_s"] = statistics.median(
        j["cal_s"] for p in run["passes"] for j in p["jobs"])
    values["trace.overhead_ratio"] = (median_pass(traced["passes"], calibrated)
                                      / median_pass(run["passes"], calibrated))
    return [run, traced], values


def main(argv=None):
    deadline = time.monotonic() + TIME_LIMIT_S
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "matsuo", "__init__.py")):
        sys.stderr.write("no src/matsuo here; run from the root of a checkout\n")
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]

    try:
        if args.trace:
            children, values = per_layer(root, args, deadline)
        else:
            children, values = end_to_end(root, args, deadline)
    except ChildFailed as err:
        sys.stderr.write("benchmark failed: %s\n" % err)
        return 1
    attempted, failed = tally(children)
    describe(children)
    print("failed_frac %.6f (%d of %d jobs)" % (failed / attempted, failed, attempted))
    metrics = {}
    for m in listed:
        metrics[m["name"]] = {"value": values.get(m["name"], 0), "unit": m["unit"]}
        print("%-40s %s %s" % (m["name"], metrics[m["name"]]["value"], m["unit"]))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
