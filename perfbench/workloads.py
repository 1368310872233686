"""The benchmark's four workloads: seeded inputs, jobs and expected verdicts.

A workload is a list of jobs.  ``build(name, seed, workdir)`` is the set-up
step: it makes the seeded inputs and returns the jobs in seeded order.  Each
job's ``run()`` returns a verdict dict, and the job is correct exactly when
that dict equals ``expected``.  ``info`` carries counters that are reported
but not gated, such as cosets defined, which a better enumerator may lower.

The seed does two things: it shuffles job order, and it relabels the points
of every triple system before its algebra is built.  Verdicts, dimensions and
axis counts are invariant under relabelling, so the expected values are fixed.
Presentations are used exactly as given.  jordan-scan makes its triple
systems during set-up; build-axes starts from the names the command line
takes, as ``matsuo build`` does, so deriving its triple systems is part of
the pass.

Every job takes at most a few seconds, so that a run repeats each one several
times; the inputs are sized for that (see README.md).
"""

import contextlib
import io
import json
import os
import random

from matsuo import algebra, cli, constructions, fields, fischer, groups


class Job:
    def __init__(self, name, fn, expected):
        self.name = name
        self.fn = fn
        self.expected = expected
        self.info = {}

    def run(self):
        return self.fn(self)


def relabel(space, rng):
    """The same triple system with its points renumbered by a random
    permutation drawn from ``rng``; labels travel with their points."""
    n = space.n_points
    perm = rng.sample(range(n), n)
    labels = [None] * n
    for old, new in enumerate(perm):
        labels[new] = space.labels[old]
    lines = [tuple(perm[p] for p in line) for line in space.lines]
    return fischer.PartialTripleSystem(n, lines, labels=labels)


def _half(f):
    return f.div(f.one, f.from_int(2))


def _run_cli(argv):
    """``matsuo.cli.main(argv)`` in process; returns (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


# ---------------------------------------------------------------------------
# verify-claims: `matsuo verify` on every claim, each as its own command, so
# every layer runs in the paper's own proportions.  rank4-hall is left out:
# its enumeration alone takes longer than a run can repeat (coset-enum runs
# Hall's presentation instead).  sym-zero-sum runs at n = 4 and miyamoto over
# F5 for the same reason.


VERIFY_COMMANDS = (
    ("embed-W2A3-r5",), ("embed-W3A3-r5",), ("fusion-axes",), ("h3-jordan",),
    ("miyamoto", "--field", "F5"), ("p3-char3-chain",), ("p3-eigendims",),
    ("p3-h3-iso",), ("p3-line-idempotents",), ("p3-peirce",), ("p3-unit",),
    ("rank4-W2A3",), ("rank4-W3A3",), ("rank4-su32",), ("root-projections",),
    ("sym-zero-sum", "--n", "4"),
)


def verify_job(args):
    def run(job):
        rc, text = _run_cli(["verify", *args, "--mask-runtime"])
        report = json.loads(text)
        return {"exit": rc, "claim": report["claim_id"], "pass": report["pass"]}
    return Job("verify " + " ".join(args), run,
               {"exit": 0, "claim": args[0], "pass": True})


# ---------------------------------------------------------------------------
# jordan-scan: the exhaustive quadruple scan, and its fail-fast path


def root_space(name, rng):
    return relabel(fischer.gamma_of_rootsystem(fischer.root_system_from_name(name)),
                   rng)


def jordan_job(label, space, field, dim, jordan):
    def run(job):
        A = constructions.matsuo_algebra(space, _half(field), field)
        return {"dim": A.dim, "jordan": bool(algebra.jordan_check(A))}
    return Job("jordan %s/%s" % (label, field.name), run,
               {"dim": dim, "jordan": jordan})


def _jordan_jobs(rng, workdir):
    Q, F5 = fields.Rationals(), fields.PrimeField(5)
    jobs = []
    for name, dim, over in (("A4", 10, (Q, F5)), ("A5", 15, (F5,)), ("A6", 21, (F5,))):
        for field in over:
            jobs.append(jordan_job(name, root_space(name, rng), field, dim, True))
    for name, dim in (("D4", 12), ("D5", 20), ("E6", 36)):
        jobs.append(jordan_job(name, root_space(name, rng), Q, dim, False))
    return jobs


# ---------------------------------------------------------------------------
# coset-enum: Todd-Coxeter writes, then table read-back


def rank4_coset_job(label, pres, variant, live):
    """Enumerate over the trivial subgroup, check the table, and compute the
    rank-4 coefficients in the regular realization."""
    def run(job):
        table = groups.todd_coxeter(pres, variant=variant)
        job.info["defined"] = table.total_defined
        if not table.complete:
            return {"status": table.status}
        rep = constructions.rank4_check(table.group())
        return {
            "status": table.status,
            "live": table.n_cosets,
            "verify": table.verify(),
            "a_cdb_left": str(rep.coeff_acdb_left),
            "a_cdb_right": str(rep.coeff_acdb_right),
        }
    return Job("todd-coxeter %s variant %d" % (label, variant), run, {
        "status": "complete", "live": live, "verify": True,
        "a_cdb_left": "-1/32", "a_cdb_right": "0",
    })


def subgroup_coset_job(label, pres, subgroup, variant, live):
    """Enumerate the cosets of a subgroup and check the table."""
    words = [groups.parse_word(w, pres.generator_names) for w in subgroup]

    def run(job):
        table = groups.todd_coxeter(pres, subgroup=words, variant=variant)
        job.info["defined"] = table.total_defined
        if not table.complete:
            return {"status": table.status}
        return {"status": table.status, "live": table.n_cosets,
                "verify": table.verify()}
    return Job("todd-coxeter %s/<%s> variant %d" % (label, ",".join(subgroup), variant),
               run, {"status": "complete", "live": live, "verify": True})


def _coset_jobs(rng, workdir):
    su32 = groups.su32_quotient_presentation()
    hall = groups.hall_quotient_presentation()
    # abc has order 6 in Hall's group of order 118098: 19683 cosets.
    return [
        rank4_coset_job("su32", su32, 0, 6912),
        rank4_coset_job("su32", su32, 1, 6912),
        subgroup_coset_job("hall", hall, ["a b c"], 0, 19683),
        subgroup_coset_job("hall", hall, ["a b c"], 1, 19683),
    ]


# ---------------------------------------------------------------------------
# build-axes: the README pipeline build -> JSON -> `matsuo axes`, and a large
# table written and read back


def _write_algebra(source, field, alpha, seed, path):
    """The README pipeline up to the JSON file: the triple system named as on
    the command line, relabelled, its algebra, the algebra's JSON."""
    space = relabel(constructions.triple_system_from_cli(**source),
                    random.Random(seed))
    A = constructions.matsuo_algebra(space, fields.scalar_from_string(field, alpha),
                                     field)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(algebra.algebra_to_json(A))
    return A


def axes_job(source, field_name, alpha, dim, workdir, rng):
    seed = rng.getrandbits(64)
    (name,) = source.values()
    path = os.path.join(workdir, "%s.json" % name.replace(":", ""))

    def run(job):
        _write_algebra(source, fields.field_from_name(field_name), alpha, seed, path)
        rc, text = _run_cli(["axes", path, "--alpha", alpha])
        report = json.loads(text)
        return {"exit": rc, "dim": report["dim"], "axes": report["axes"],
                "all_axes": report["all_axes"]}
    return Job("axes %s/%s alpha=%s" % (name, field_name, alpha), run,
               {"exit": 0, "dim": dim, "axes": dim, "all_axes": True})


def round_trip_job(roots, dim, workdir, rng):
    seed = rng.getrandbits(64)
    path = os.path.join(workdir, "%s.json" % roots)

    def run(job):
        A = _write_algebra({"roots": roots}, fields.Rationals(), "1/2", seed, path)
        with open(path, "r", encoding="utf-8") as fh:
            B = algebra.algebra_from_json(fh.read())
        return {"dim": B.dim,
                "round_trip": B.labels == A.labels and B.table == A.table}
    return Job("build %s/Q and read back" % roots, run,
               {"dim": dim, "round_trip": True})


def _axes_jobs(rng, workdir):
    return [
        axes_job({"roots": "D4"}, "Q", "1/3", 12, workdir, rng),
        axes_job({"group": "sym:6"}, "Q", "1/3", 15, workdir, rng),
        axes_job({"group": "W2A3"}, "Q", "1/3", 12, workdir, rng),
        axes_job({"roots": "D5"}, "F5", "1/2", 20, workdir, rng),
        round_trip_job("E7", 63, workdir, rng),
    ]


def _verify_jobs(rng, workdir):
    return [verify_job(args) for args in VERIFY_COMMANDS]


BUILDERS = {
    "verify-claims": _verify_jobs,
    "jordan-scan": _jordan_jobs,
    "coset-enum": _coset_jobs,
    "build-axes": _axes_jobs,
}


def build(name, seed, workdir):
    """Seeded inputs and jobs of one workload, in seeded order.  ``workdir``
    is where build-axes writes its algebra JSON files."""
    rng = random.Random(seed)
    jobs = BUILDERS[name](rng, workdir)
    rng.shuffle(jobs)
    return jobs
