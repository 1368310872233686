"""The benchmark's tracer wraps named functions and methods of the package
(`perfbench/tracer.py`, SPANS), and its workloads (`perfbench/workloads.py`)
call and read more of them.  Both look them up by name, so deleting or
renaming one of them breaks the benchmark; these tests catch that in the fast
suite.  They only read `perfbench/`."""

import importlib
import random
from pathlib import Path

from matsuo import groups

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_finds_every_span_and_restores_the_package(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    before = {(id(owner), attribute): vars(owner)[attribute]
              for _, _, owner, attributes, _ in tracer.SPANS
              for attribute in attributes}
    t = tracer.Tracer()
    try:
        t.install()
        assert t.patch_list()
    finally:
        t.uninstall()
    assert not t.patch_list()
    after = {(id(owner), attribute): vars(owner)[attribute]
             for _, _, owner, attributes, _ in tracer.SPANS
             for attribute in attributes}
    assert after == before


def test_workload_jobs_reach_their_expected_verdicts(monkeypatch, tmp_path):
    """One job of each workload kind, run as the benchmark runs it.  Besides
    the traced names, the jobs read ``AlgebraTable.table``,
    ``fields.scalar_from_string``, ``CosetTable.status`` and
    ``groups.parse_word``."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    rng = random.Random(7)
    jobs = [
        workloads.round_trip_job("D4", 12, str(tmp_path), rng),
        workloads.axes_job({"roots": "D4"}, "Q", "1/3", 12, str(tmp_path), rng),
        workloads.rank4_coset_job("su32", groups.su32_quotient_presentation(), 0, 6912),
        workloads.subgroup_coset_job("hall", groups.hall_quotient_presentation(),
                                     ["a b c"], 0, 19683),
        workloads.verify_job(("p3-unit",)),
        workloads.verify_job(("miyamoto", "--field", "F5")),
        workloads.verify_job(("p3-char3-chain",)),
        workloads.verify_job(("embed-W3A3-r5",)),
        workloads.verify_job(("rank4-W2A3",)),
    ]
    for job in jobs:
        assert job.run() == job.expected, job.name


def test_traced_jobs_still_reach_the_linalg_and_axis_spans(monkeypatch, tmp_path):
    """`perfbench/interactions.json` predicts that the elimination, the
    kernel, the eigen decomposition, table products, subspaces and the axis
    check run on build-axes, and the Miyamoto map, the eigen decomposition,
    matrix products and the multiplicativity check on verify-claims; the
    tracer sees each on one job.  ``basis_axis_checks`` keeps
    ``AlgebraTable.is_idempotent`` for ``algebra.mul`` on the axes job."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    workloads = importlib.import_module("workloads")
    rng = random.Random(7)
    cases = [
        (workloads.axes_job({"roots": "D4"}, "Q", "1/3", 12, str(tmp_path), rng),
         ("linalg.rref", "linalg.kernel", "algebra.eigen", "algebra.mul",
          "linalg.subspace", "algebra.check_axis")),
        (workloads.verify_job(("miyamoto", "--field", "F5")), ("algebra.miyamoto",)),
        (workloads.verify_job(("p3-eigendims",)), ("algebra.eigen",)),
        (workloads.verify_job(("p3-h3-iso",)),
         ("linalg.matmul", "algebra.is_multiplicative")),
    ]
    for job, spans in cases:
        t = tracer.Tracer()
        try:
            t.install()
            assert job.run() == job.expected, job.name
        finally:
            t.uninstall()
        metrics = t.metrics()
        for span in spans:
            assert metrics.get(span + ".calls", 0) > 0, (job.name, span)
