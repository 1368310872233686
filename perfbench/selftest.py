"""Self-tests of the benchmark.  Run from the root of a checkout:

    python3 perfbench/selftest.py

They check that seeded inputs keep their verdicts, that every span and
counter fires on the workloads predicted in interactions.json and reads 0 on
the others, that traced counters repeat exactly, that the tracer leaves no
patch behind, and that children get the fixed environment.  Every workload
runs traced twice in fresh children, so this takes a few minutes.
"""

import json
import os
import random
import sys
import time
import types
import unittest

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(ROOT, "src"))

from matsuo import algebra, claims, constructions, fields, fischer, groups  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def _load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


SPEC = _load(os.path.join(ROOT, "BENCHMARK.json"))
TABLE = _load(os.path.join(HERE, "interactions.json"))["per_layer"]
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def spawn(workload, mode, seed=7):
    args = types.SimpleNamespace(workload=workload, seed=seed, seconds=0)
    return run.spawn(ROOT, args, mode, time.monotonic() + 600)


class SeededInputs(unittest.TestCase):
    def summary(self, seed):
        rng = random.Random(seed)
        f = fields.Rationals()
        half = f.div(f.one, f.from_int(2))
        out = {}
        spaces = {
            "A3": workloads.root_space("A3", rng),
            "P3": workloads.relabel(fischer.build_p3(), rng),
            "D4": workloads.root_space("D4", rng),
        }
        for name, space in spaces.items():
            A = constructions.matsuo_algebra(space, half, f)
            out[name] = {"lines": space.lines, "dim": A.dim,
                         "jordan": bool(algebra.jordan_check(A)),
                         "axes": claims.axes_report(A, half)["axes"]}
        su32 = groups.su32_quotient_presentation()
        jobs = [workloads.rank4_coset_job("su32", su32, v, 6912) for v in (0, 1)]
        rng.shuffle(jobs)
        out["su32"] = sorted((job.name, job.run()["live"]) for job in jobs)
        return out

    def test_two_seeds_give_the_same_verdicts(self):
        one, two = self.summary(1), self.summary(2)
        for name, dim, jordan in (("A3", 6, True), ("P3", 9, True), ("D4", 12, False)):
            self.assertNotEqual(one[name]["lines"], two[name]["lines"], name)
            for got in (one[name], two[name]):
                self.assertEqual((got["dim"], got["jordan"], got["axes"]),
                                 (dim, jordan, dim), name)
        self.assertEqual(one["su32"], two["su32"])
        self.assertEqual([live for _, live in one["su32"]], [6912, 6912])


class Tracing(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.runs = {w: [spawn(w, "traced"), spawn(w, "traced")] for w in WORKLOADS}

    def test_table_lists_every_per_layer_metric(self):
        self.assertEqual([m["name"] for m in SPEC["per_layer"]], list(TABLE))
        e2e = {m["name"] for m in SPEC["end_to_end"]}
        for name, row in TABLE.items():
            self.assertEqual(sorted(row["on"] + row["idle"]), sorted(WORKLOADS), name)
            self.assertLessEqual(set(row["moves"]), e2e, name)

    def test_traced_passes_keep_their_verdicts(self):
        for workload, results in self.runs.items():
            for result in results:
                for job in result["passes"][0]["jobs"]:
                    self.assertTrue(job["ok"], (workload, job))

    def test_each_metric_fires_where_predicted_and_nowhere_else(self):
        for name, row in TABLE.items():
            if name == "trace.overhead_ratio" or name.startswith("raw."):
                continue  # computed by run.py from an untraced pass
            for workload in row["on"]:
                value = self.runs[workload][0]["trace"].get(name, 0)
                self.assertGreater(value, 0, (name, workload))
            for workload in row["idle"]:
                value = self.runs[workload][0]["trace"].get(name, 0)
                self.assertEqual(value, 0, (name, workload))

    def test_counters_repeat_exactly(self):
        counted = [m["name"] for m in SPEC["per_layer"] if m["unit"] in ("count", "B")]
        for workload, (first, second) in self.runs.items():
            for name in counted:
                self.assertEqual(first["trace"].get(name, 0),
                                 second["trace"].get(name, 0), (workload, name))


class Patching(unittest.TestCase):
    def test_install_wraps_every_binding_and_uninstall_restores_it(self):
        f = fields.Rationals()
        space = workloads.root_space("A3", random.Random(3))
        job = workloads.jordan_job("A3", space, f, 6, True)
        tracer = Tracer()
        tracer.install(extra_modules=[workloads])
        try:
            patches = tracer.patch_list()
            self.assertEqual(job.run(), job.expected)
        finally:
            tracer.uninstall()
        bound = {(ns.__name__, attr) for ns, attr, _ in patches}
        for where in ("matsuo", "matsuo.algebra", "matsuo.claims"):
            self.assertIn((where, "jordan_check"), bound)
        before = tracer.metrics()
        self.assertEqual(before["algebra.jordan_check.calls"], 1)
        self.assertGreater(before["fields.q.ops"], 0)
        for namespace, attribute, original in patches:
            self.assertIs(vars(namespace)[attribute], original, attribute)
        self.assertEqual(job.run(), job.expected)
        self.assertEqual(tracer.metrics(), before)
        for namespace, attribute, original in patches:
            self.assertIs(vars(namespace)[attribute], original, attribute)


class ChildEnvironment(unittest.TestCase):
    def test_child_gets_the_fixed_environment(self):
        saved = dict(os.environ)
        os.environ.update(MATSUO_MAX_COSETS="5", PYTHONHASHSEED="123",
                          PYTHONTRACEMALLOC="1")
        try:
            result = spawn("coset-enum", "setup")
        finally:
            os.environ.clear()
            os.environ.update(saved)
        self.assertEqual(result["env"], {"hash_seed": "0",
                                         "coset_budget": groups.DEFAULT_MAX_COSETS,
                                         "tracing_memory": False})
        self.assertEqual(result["passes"], [])


if __name__ == "__main__":
    unittest.main()
