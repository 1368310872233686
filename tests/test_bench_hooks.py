"""The benchmark's tracer wraps named functions and methods of the package
(`perfbench/tracer.py`, SPANS).  It looks each one up by name, so deleting or
renaming one of them breaks the benchmark; this test catches that in the fast
suite.  It only reads `perfbench/`."""

import importlib
from pathlib import Path

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
