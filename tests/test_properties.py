"""Randomized property suites with a fixed seed; each suite runs at least a
thousand cases."""

import random

from matsuo.fields import PrimeField, Rationals
from matsuo.linalg import Matrix, Subspace, kernel, rref
from matsuo.fischer import (
    build_p2_dual,
    build_p3,
    gamma_of_rootsystem,
    is_fischer,
    root_system_from_name,
)

SEED = 1729
FIELDS = [Rationals(), PrimeField(3), PrimeField(5), PrimeField(7)]


def _random_scalar(rng, f):
    if isinstance(f, Rationals):
        den = rng.randint(1, 9)
        return f.div(f.from_int(rng.randint(-20, 20)), f.from_int(den))
    return f.from_int(rng.randint(0, f.p - 1))


def test_field_axioms_randomized():
    rng = random.Random(SEED)
    cases = 0
    for _ in range(1200):
        f = rng.choice(FIELDS)
        x, y, z = (_random_scalar(rng, f) for _ in range(3))
        assert f.add(x, y) == f.add(y, x)
        assert f.mul(x, y) == f.mul(y, x)
        assert f.add(f.add(x, y), z) == f.add(x, f.add(y, z))
        assert f.mul(f.mul(x, y), z) == f.mul(x, f.mul(y, z))
        assert f.mul(x, f.add(y, z)) == f.add(f.mul(x, y), f.mul(x, z))
        assert f.add(x, f.neg(x)) == f.zero
        if x != f.zero:
            assert f.mul(x, f.inv(x)) == f.one
        cases += 1
    assert cases >= 1000


def _random_matrix(rng, f, max_dim=5):
    nr, nc = rng.randint(1, max_dim), rng.randint(1, max_dim)
    return Matrix(f, [[_random_scalar(rng, f) for _ in range(nc)]
                      for _ in range(nr)])


def test_rref_idempotent_randomized():
    rng = random.Random(SEED + 1)
    for _ in range(1000):
        m = _random_matrix(rng, rng.choice(FIELDS))
        red, rank = rref(m)
        red2, rank2 = rref(red)
        assert red == red2 and rank == rank2


def test_rank_nullity_randomized():
    rng = random.Random(SEED + 2)
    for _ in range(1000):
        m = _random_matrix(rng, rng.choice(FIELDS))
        _, rank = rref(m)
        assert rank + kernel(m).dim == m.ncols


def test_subspace_modular_dimension_law_randomized():
    rng = random.Random(SEED + 3)
    for _ in range(1000):
        f = rng.choice(FIELDS)
        n = rng.randint(1, 5)
        def rand_space():
            vecs = [[_random_scalar(rng, f) for _ in range(n)]
                    for _ in range(rng.randint(0, n))]
            return Subspace.from_vectors(f, n, vecs)
        s, t = rand_space(), rand_space()
        assert s.dim + t.dim == s.add(t).dim + s.intersect(t).dim


def _constructed_spaces():
    spaces = [("P2dual", build_p2_dual()), ("P3", build_p3())]
    for name in ("A2", "A3", "A4", "A5", "A6", "D4", "D5"):
        spaces.append((name, gamma_of_rootsystem(root_system_from_name(name))))
    return spaces


def test_wedge_involutivity_randomized():
    rng = random.Random(SEED + 4)
    spaces = _constructed_spaces()
    pool = []
    for name, sp in spaces:
        for x in range(sp.n_points):
            for y in sp.neighbours(x):
                pool.append((sp, x, y))
    assert len(pool) >= 500
    cases = 0
    for _ in range(1200):
        sp, x, y = rng.choice(pool)
        z = sp.wedge(x, y)
        assert sp.wedge(x, z) == y
        assert sp.wedge(z, y) == x
        assert sp.wedge(y, x) == z
        cases += 1
    assert cases >= 1000


def test_fischer_axiom_closure_on_constructed_spaces():
    # every pair of intersecting lines is one case; the plane of order 3 is
    # the only fixture where the 9-point closure occurs
    total_pairs = 0
    fixtures = _constructed_spaces()
    for name in ("E6", "E7"):
        fixtures.append((name, gamma_of_rootsystem(root_system_from_name(name))))
    for name, sp in fixtures:
        res = is_fischer(sp)
        assert res.is_fischer, name
        assert res.nondegenerate, name
        expected_symplectic = name != "P3"
        assert res.symplectic == expected_symplectic, name
        count = 0
        lines = sp.lines
        for i in range(len(lines)):
            for j in range(i + 1, len(lines)):
                if set(lines[i]) & set(lines[j]):
                    count += 1
        total_pairs += count
    assert total_pairs >= 1000
