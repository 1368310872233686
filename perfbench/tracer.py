"""Outside-in tracing of the matsuo layers, from the benchmark's own files.

``Tracer.install()`` replaces the public functions and methods listed in
``SPANS`` by wrappers and ``uninstall()`` puts the original objects back.  A
function is replaced under every name that binds it in every matsuo module
(``claims`` does ``from .algebra import jordan_check``, so patching
``matsuo.algebra`` alone would miss its calls), and in the extra modules
given to ``install``.  Methods are replaced on their class.

There are two kinds of wrapper:

* a span times each call.  It records calls, wall seconds and self seconds,
  the duration minus the time covered by spans it encloses.  A call made
  while a span of the same name is already open (``Subspace.add`` calling
  ``Subspace.from_vectors``) runs untimed, so time and calls are not counted
  twice.
* a counter only counts calls.  It is used for the hottest entry points
  (scalar arithmetic, table reads), where timing each call would swamp the
  work.

The tracer holds its state on the instance; nothing stays patched after
``uninstall``.
"""

import sys
import time
import tracemalloc
from collections import Counter, defaultdict

from matsuo import algebra, claims, cli, constructions, fields, fischer, groups, linalg

FIELD_OPS = ("add", "sub", "mul", "neg", "inv", "div")


def _rref_cells(tracer, args, result):
    rows = args[1]
    tracer.counts["linalg.rref.cells"] += len(rows) * (len(rows[0]) if rows else 0)


def _gamma_size(tracer, args, result):
    tracer.counts["fischer.points"] += result.n_points
    tracer.counts["fischer.lines"] += len(result.lines)


def _cosets(tracer, args, result):
    tracer.counts["groups.cosets_defined"] += result.total_defined
    if result.complete:
        tracer.counts["groups.cosets_live"] += result.n_cosets


def _closure_size(tracer, args, result):
    tracer.counts["groups.closure.elements"] += len(result)


def _json_size(tracer, args, result):
    tracer.counts["algebra.json_bytes"] += len(result.encode("utf-8"))


def _claim_name(args, kwargs):
    return "claims." + (args[0] if args else kwargs["claim_id"])


# (name, kind, owner, attributes, options).  A span's name is the stem of its
# `.calls` and `.s` metrics, and its self time adds to `<layer>.self_s`; a
# counter's name is its metric.
SPANS = [
    ("fields.q.ops", "count", fields.Rationals, FIELD_OPS, {}),
    ("fields.fp.ops", "count", fields.PrimeField, FIELD_OPS, {}),
    ("fields.parse", "span", fields.Rationals, ("parse",), {}),
    ("fields.parse", "span", fields.PrimeField, ("parse",), {}),
    ("linalg.rref", "span", linalg, ("_rref_rows",), {"hook": _rref_cells}),
    ("linalg.kernel", "span", linalg, ("kernel",), {}),
    ("linalg.matmul", "span", linalg.Matrix, ("__mul__",), {}),
    ("linalg.inverse", "span", linalg.Matrix, ("inverse",), {}),
    ("linalg.subspace", "span", linalg.Subspace,
     ("from_vectors", "reduce", "contains", "coordinates", "add", "intersect"), {}),
    ("fischer.gamma", "span", fischer, ("gamma_of_group", "gamma_of_rootsystem"),
     {"hook": _gamma_size}),
    ("fischer.pts_isomorphic", "span", fischer, ("pts_isomorphic",), {}),
    ("groups.todd_coxeter", "span", groups, ("todd_coxeter",),
     {"hook": _cosets, "memory": True}),
    ("groups.table_verify", "span", groups.CosetTable, ("verify",), {}),
    ("groups.regular_group", "span", groups.CosetTable, ("group",), {}),
    ("groups.closure", "span", groups, ("mulclose", "conjugacy_closure"),
     {"hook": _closure_size}),
    ("groups.order_of_product.calls", "count", groups.GroupRealization,
     ("order_of_product",), {}),
    ("algebra.table_reads", "count", algebra.AlgebraTable, ("sparse_row",), {}),
    ("algebra.mul", "span", algebra.AlgebraTable, ("mul",), {}),
    ("algebra.jordan_check", "span", algebra, ("jordan_check",), {}),
    ("algebra.check_axis", "span", algebra, ("check_axis",), {}),
    ("algebra.eigen", "span", algebra, ("eigen_decomposition",), {}),
    ("algebra.miyamoto", "span", algebra, ("miyamoto",), {}),
    ("algebra.is_multiplicative", "span", algebra, ("is_multiplicative",), {}),
    ("algebra.json_write", "span", algebra, ("algebra_to_json",), {"hook": _json_size}),
    ("algebra.json_read", "span", algebra, ("algebra_from_json",), {}),
    ("constructions.matsuo_algebra", "span", constructions, ("matsuo_algebra",), {}),
    ("constructions.rank4_check", "span", constructions, ("rank4_check",), {}),
    ("constructions.embedding_check", "span", constructions, ("embedding_check",), {}),
    ("constructions.an_isomorphism", "span", constructions, ("an_isomorphism",), {}),
    ("constructions.p3_char3_chain", "span", constructions, ("p3_char3_chain",), {}),
    ("claims.run_claim", "span", claims, ("run_claim",), {"name": _claim_name}),
    ("claims.count_linearized_quadruples", "span", claims,
     ("count_linearized_quadruples",), {}),
    ("cli.main", "span", cli, ("main",), {}),
]

LAYERS = ("fields", "linalg", "fischer", "groups", "algebra", "constructions",
          "claims", "cli")


def _matsuo_modules():
    return [m for n, m in sys.modules.items()
            if n == "matsuo" or n.startswith("matsuo.")]


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.seconds = defaultdict(float)
        self.self_seconds = defaultdict(float)
        self.counts = Counter()
        self.peak_bytes = Counter()
        self._cells = {}      # counter name -> [count], summed in metrics()
        self._open = Counter()  # span name -> open calls of that name
        self._stack = []      # seconds covered by child spans, per open span
        self._patches = []    # (namespace, attribute, original object)

    # -- wrappers -----------------------------------------------------------

    def _counter(self, name, fn):
        cell = self._cells.setdefault(name, [0])

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _span(self, name, fn, hook=None, memory=False, name_of=None):
        tracer = self
        is_open = self._open
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            span = name_of(args, kwargs) if name_of else name
            if is_open[span]:
                return fn(*args, **kwargs)
            is_open[span] += 1
            stack.append(0.0)
            own_trace = memory and not tracemalloc.is_tracing()
            if own_trace:
                tracemalloc.start()
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = clock() - start
                if own_trace:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    tracer.peak_bytes[span] = max(tracer.peak_bytes[span], peak)
                children = stack.pop()
                is_open[span] -= 1
                tracer.calls[span] += 1
                tracer.seconds[span] += took
                tracer.self_seconds[span] += took - children
                if stack:
                    stack[-1] += took
            if hook is not None:
                hook(tracer, args, result)
            return result
        return wrapper

    def _wrap(self, name, kind, fn, options):
        if kind == "count":
            return self._counter(name, fn)
        return self._span(name, fn, options.get("hook"), options.get("memory", False),
                          options.get("name"))

    # -- patching -----------------------------------------------------------

    def _replace(self, namespace, attribute, new):
        self._patches.append((namespace, attribute, vars(namespace)[attribute]))
        setattr(namespace, attribute, new)

    def install(self, extra_modules=()):
        """Wrap every entry in SPANS, in every module that bound it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = _matsuo_modules() + list(extra_modules)
        for name, kind, owner, attributes, options in SPANS:
            for attribute in attributes:
                original = vars(owner)[attribute]
                if isinstance(owner, type):
                    if isinstance(original, classmethod):
                        new = classmethod(self._wrap(name, kind, original.__func__,
                                                     options))
                    else:
                        new = self._wrap(name, kind, original, options)
                    self._replace(owner, attribute, new)
                    continue
                new = self._wrap(name, kind, original, options)
                for module in modules:
                    for bound, value in list(vars(module).items()):
                        if value is original:
                            self._replace(module, bound, new)

    def uninstall(self):
        while self._patches:
            namespace, attribute, original = self._patches.pop()
            setattr(namespace, attribute, original)

    def patch_list(self):
        """(namespace, attribute, original) for every replacement made."""
        return list(self._patches)

    # -- results ------------------------------------------------------------

    def metrics(self):
        """Every traced value by metric name."""
        out = dict(self.counts)
        for name, cell in self._cells.items():
            out[name] = cell[0]
        for span in self.calls:
            out[span + ".calls"] = self.calls[span]
            out[span + ".s"] = self.seconds[span]
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for span, took in self.self_seconds.items():
            layer_self[span.split(".", 1)[0]] += took
        for layer, took in layer_self.items():
            out[layer + ".self_s"] = took
        defined = out.get("groups.cosets_defined", 0)
        out["groups.coset_yield"] = (out.get("groups.cosets_live", 0) / defined
                                     if defined else 0.0)
        out["groups.todd_coxeter.peak_mib"] = (
            self.peak_bytes["groups.todd_coxeter"] / 2**20)
        return out
