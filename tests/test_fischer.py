import copy
import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from matsuo.fischer import (
    FischerCheck,
    GeometryError,
    PartialTripleSystem,
    build_p2_dual,
    build_p3,
    gamma_of_group,
    gamma_of_rootsystem,
    is_fischer,
    pts_isomorphic,
    root_system_from_name,
    roots_of,
    space_from_json_dict,
    space_to_json_dict,
    subspace_closure,
)
from matsuo.groups import build_3sq2, build_sym, build_wk_affine_a

from test_properties import _constructed_spaces


def test_single_line_valid():
    sp = PartialTripleSystem(3, [(0, 1, 2)])
    assert sp.wedge(0, 1) == 2


def test_two_lines_sharing_two_points_invalid():
    with pytest.raises(GeometryError) as err:
        PartialTripleSystem(4, [(0, 1, 2), (0, 1, 3)])
    assert str(err.value) == "lines (0, 1, 2) and (0, 1, 3) share 2 points"


def _validate_reference(n, lines):
    """The axioms checked over every pair of lines: the oracle for the
    one-pass check in the constructor.  The message it should raise, or None."""
    lines = sorted(tuple(sorted(l)) for l in lines)
    seen = set()
    for line in lines:
        if len(line) != 3 or len(set(line)) != 3:
            return "line %r does not have 3 distinct points" % (line,)
        if any(p < 0 or p >= n for p in line):
            return "line %r uses an unknown point" % (line,)
        if line in seen:
            return "line %r repeated" % (line,)
        seen.add(line)
    for l1, l2 in combinations(lines, 2):
        common = set(l1) & set(l2)
        if len(common) > 1:
            return "lines %r and %r share %d points" % (l1, l2, len(common))
    return None


def _assert_built_as_the_reference_says(n, lines):
    """Build the system, or see it refused with the oracle's message."""
    expected = _validate_reference(n, lines)
    if expected is None:
        PartialTripleSystem(n, lines)
    else:
        with pytest.raises(GeometryError) as err:
            PartialTripleSystem(n, lines)
        assert str(err.value) == expected, lines
    return expected


@pytest.mark.parametrize("n, lines, error", [
    # several lines through one point pair
    (6, [(0, 1, 2), (0, 1, 3), (0, 1, 4), (1, 0, 5)],
     "lines (0, 1, 2) and (0, 1, 3) share 2 points"),
    # (0,2,3)/(0,2,4) meet first in the pass, but (0,1,9)/(1,5,9) come first
    # among all pairs of lines
    (10, [(0, 1, 9), (0, 2, 3), (0, 2, 4), (9, 5, 1)],
     "lines (0, 1, 9) and (1, 5, 9) share 2 points"),
    # a repeated line wins over a shared pair met before it
    (5, [(0, 1, 2), (0, 1, 3), (0, 1, 3)], "line (0, 1, 3) repeated"),
    (5, [(0, 1, 2), (0, 1, 3), (0, 1, 5)], "line (0, 1, 5) uses an unknown point"),
    (5, [(0, 1, 2), (0, 1, 3), (3, 4, 3)],
     "line (3, 3, 4) does not have 3 distinct points"),
    # four entries, three of them distinct
    (4, [(0, 0, 1, 2)], "line (0, 0, 1, 2) does not have 3 distinct points"),
])
def test_validate_reports_what_the_pairwise_check_reports(n, lines, error):
    assert _assert_built_as_the_reference_says(n, lines) == error


def _random_line(rng, n):
    """Three points of range(n), now and then -1 or n in place of one."""
    return tuple(rng.choice((-1, n)) if rng.random() < 0.03 else rng.randrange(n)
                 for _ in range(3))


def test_validate_agrees_with_the_pairwise_check_on_random_line_sets():
    rng = random.Random(1729)
    kinds = set()
    for _ in range(3000):
        n = rng.randint(3, 9)
        lines = []
        for _ in range(rng.randint(0, 8)):
            repeat = lines and rng.random() < 0.05
            lines.append(rng.choice(lines) if repeat else _random_line(rng, n))
        error = _assert_built_as_the_reference_says(n, lines)
        kinds.update(word for word in ("share", "repeated", "unknown", "distinct")
                     if word in (error or ""))
        kinds.add(error is None)
    assert kinds == {True, False, "share", "repeated", "unknown", "distinct"}


def test_validate_accepts_every_constructed_space():
    for name, space in _constructed_spaces():
        error = _assert_built_as_the_reference_says(space.n_points, space.lines)
        assert error is None, name


def test_p3_counts_and_degrees():
    p3 = build_p3()
    assert p3.n_points == 9
    assert len(p3.lines) == 12
    for x in range(9):
        assert len(p3.lines_through(x)) == 4


def test_p3_wedges_match_the_line_list():
    p3 = build_p3()
    # 1-based: 1^2 = 3 and 1^5 = 9
    assert p3.wedge(0, 1) == 2
    assert p3.wedge(0, 4) == 8


def test_p2_dual_counts():
    p2 = build_p2_dual()
    assert p2.n_points == 6
    assert len(p2.lines) == 4
    for x in range(6):
        assert len(p2.lines_through(x)) == 2


def _subspace_closure_reference(space, points):
    """The closure that the one-pass walk replaced: each round pairs the
    points found in the round before with every point so far, through the
    ``collinear`` and ``wedge`` methods."""
    current = set(points)
    frontier = sorted(current)
    while frontier:
        fresh = []
        for x in frontier:
            for y in sorted(current):
                if x != y and space.collinear(x, y):
                    z = space.wedge(x, y)
                    if z not in current:
                        current.add(z)
                        fresh.append(z)
        frontier = fresh
    return current


def test_subspace_closure_matches_the_frontier_loop():
    rng = random.Random(1729)
    spaces = [sp for _, sp in _constructed_spaces()]
    spaces += [gamma_of_rootsystem(root_system_from_name(n)) for n in ("D6", "E8")]
    spaces += [_random_triple_system(rng) for _ in range(200)]
    sizes = set()
    for space in spaces:
        # the closures that is_fischer takes, then random point sets
        cases = [set(l1) | set(l2) for l1, l2 in combinations(space.lines, 2)
                 if set(l1) & set(l2)][:300]
        for _ in range(20 if space.n_points < 20 else 300):
            k = rng.randint(0, min(9, space.n_points))
            cases.append(rng.sample(range(space.n_points), k))
        for points in cases:
            closure = subspace_closure(space, points)
            assert closure == _subspace_closure_reference(space, points), points
            sizes.add(len(closure))
    assert {0, 1, 3, 6, 9, 12, 120} <= sizes


def test_closure_of_point_and_line():
    p3 = build_p3()
    assert subspace_closure(p3, {0}) == {0}
    assert subspace_closure(p3, {0, 1}) == {0, 1, 2}


def test_closure_of_two_intersecting_lines_is_whole_plane():
    p3 = build_p3()
    assert subspace_closure(p3, {0, 1, 2, 3, 6}) == set(range(9))


def test_is_fischer_on_canonical_planes():
    r2 = is_fischer(build_p2_dual())
    assert r2.is_fischer and r2.symplectic
    r3 = is_fischer(build_p3())
    assert r3.is_fischer and not r3.symplectic


def test_is_fischer_counterexample():
    # a triple system that is not a Fischer space: two intersecting lines
    # whose closure is just those two lines (5 points, no wedge closure)
    sp = PartialTripleSystem(5, [(0, 1, 2), (0, 3, 4)])
    res = is_fischer(sp)
    assert not res.is_fischer
    assert res.offending is not None


def _is_fischer_reference(space):
    """The check that counting replaced in is_fischer: the subsystem on the
    closure of each meeting pair of lines is matched against the two planes by
    an isomorphism search."""
    p2 = build_p2_dual()
    p3 = build_p3()
    saw_p3 = False
    for l1, l2 in combinations(space.lines, 2):
        if not set(l1) & set(l2):
            continue
        closure = _subspace_closure_reference(space, set(l1) | set(l2))
        index = {p: i for i, p in enumerate(sorted(closure))}
        sub = PartialTripleSystem(len(closure), [
            tuple(index[p] for p in line) for line in space.lines
            if all(p in index for p in line)])
        if len(closure) == 6 and len(sub.lines) == 4 and pts_isomorphic(sub, p2):
            continue
        if len(closure) == 9 and len(sub.lines) == 12 and pts_isomorphic(sub, p3):
            saw_p3 = True
            continue
        return FischerCheck(False, False, not space.isolated_points(), (l1, l2))
    return FischerCheck(True, not saw_p3, not space.isolated_points())


def test_is_fischer_agrees_with_the_isomorphism_search(su32_group):
    spaces = [sp for _, sp in _constructed_spaces()]
    spaces += [gamma_of_group(g) for g in (build_sym(4), build_sym(5), build_3sq2(),
                                           build_wk_affine_a(2, 3),
                                           build_wk_affine_a(3, 3), su32_group)]
    spaces += [PartialTripleSystem(5, [(0, 1, 2), (0, 3, 4)]),
               PartialTripleSystem(9, build_p3().lines[1:])]
    verdicts = []
    for space in spaces:
        check = is_fischer(space)
        assert check == _is_fischer_reference(space), space
        verdicts.append(check.is_fischer)
    assert verdicts[-2:] == [False, False]


def _random_triple_system(rng):
    """A relabelled P2dual or P3 with up to two lines dropped, or no lines,
    on up to 3 more points; then random lines, each kept when it shares no
    point pair with a line already there."""
    base = rng.choice((None, None, None, build_p2_dual(), build_p3()))
    if base is None:
        n, lines = rng.randint(3, 10), []
    else:
        n = base.n_points + rng.randint(0, 3)
        image = rng.sample(range(n), base.n_points)
        lines = [tuple(image[p] for p in line) for line in base.lines]
        rng.shuffle(lines)
        del lines[:rng.choice((0, 1, 2))]
    covered = {pair for line in lines for pair in combinations(sorted(line), 2)}
    for _ in range(rng.randint(0, 6)):
        line = sorted(rng.sample(range(n), 3))
        pairs = set(combinations(line, 2))
        if not pairs & covered:
            lines.append(line)
            covered |= pairs
    return PartialTripleSystem(n, lines)


def test_is_fischer_agrees_with_the_isomorphism_search_on_random_systems():
    rng = random.Random(1729)
    seen = set()
    for _ in range(2000):
        space = _random_triple_system(rng)
        check = is_fischer(space)
        assert check == _is_fischer_reference(space), space.lines
        seen.add((check.is_fischer, check.symplectic, check.nondegenerate))
    assert {(True, True, True), (True, False, True), (True, True, False),
            (False, False, True), (False, False, False)} <= seen


def test_partition_into_self_neighbours_rest():
    for sp in (build_p2_dual(), build_p3()):
        for x in range(sp.n_points):
            nbrs = set(sp.neighbours(x))
            rest = set(range(sp.n_points)) - nbrs - {x}
            assert {x} | nbrs | rest == set(range(sp.n_points))
            assert not ({x} & nbrs) and not (nbrs & rest)


def test_wedge_involution():
    for sp in (build_p2_dual(), build_p3()):
        for x in range(sp.n_points):
            for y in sp.neighbours(x):
                z = sp.wedge(x, y)
                assert sp.wedge(z, y) == x


def test_roots_of_a2_matches_fixed_realization():
    rs = root_system_from_name("A2")
    assert set(rs.positive) == {(1, -1, 0), (0, 1, -1), (1, 0, -1)}


def test_roots_of_g2_contains_printed_roots():
    rs = root_system_from_name("G2")
    assert (1, -1, 0) in rs.positive
    assert (-1, 2, -1) in rs.positive
    assert (0, 1, -1) in rs.positive
    assert len(rs.positive) == 6


def test_positive_root_counts():
    assert len(roots_of("A", 4).positive) == 10
    assert len(roots_of("D", 4).positive) == 12
    assert len(roots_of("D", 5).positive) == 20
    assert len(root_system_from_name("E6").positive) == 36
    assert len(root_system_from_name("E7").positive) == 63
    assert len(root_system_from_name("E8").positive) == 120


def test_roots_come_in_plus_minus_pairs():
    for name in ("A3", "D4", "E6"):
        rs = root_system_from_name(name)
        pos = set(rs.positive)
        for r in pos:
            assert tuple(-a for a in r) not in pos


def test_gamma_a2_single_line():
    gam = gamma_of_rootsystem(root_system_from_name("A2"))
    assert gam.n_points == 3
    assert gam.lines == [(0, 1, 2)]


def test_gamma_a3_is_p2_dual():
    gam = gamma_of_rootsystem(root_system_from_name("A3"))
    assert gam.n_points == 6 and len(gam.lines) == 4
    assert pts_isomorphic(gam, build_p2_dual()) is not None


def brute_force_a2_subsystems(rs):
    """Oracle: count coplanar, pairwise non-orthogonal triples where some
    signing makes the three roots sum to zero."""
    count = 0
    for trip in combinations(rs.positive, 3):
        r, s, t = trip
        if any(rs.form(u, v) == 0 for u, v in combinations(trip, 2)):
            continue
        found = False
        for su in (1, -1):
            for sv in (1, -1):
                vec = [su * a + sv * b for a, b in zip(r, s)]
                if tuple(vec) == t or tuple(-x for x in vec) == t:
                    found = True
        if found:
            count += 1
    return count


def test_gamma_a4_has_ten_points_ten_lines():
    rs = root_system_from_name("A4")
    gam = gamma_of_rootsystem(rs)
    assert gam.n_points == 10
    assert len(gam.lines) == 10
    assert len(gam.lines) == brute_force_a2_subsystems(rs)


def test_gamma_d4_line_count_matches_oracle():
    rs = root_system_from_name("D4")
    gam = gamma_of_rootsystem(rs)
    assert len(gam.lines) == brute_force_a2_subsystems(rs)


def _gamma_of_rootsystem_reference(rs):
    """The pairwise construction that one lookup of r + s replaced in
    gamma_of_rootsystem: for each pair of non-orthogonal positive roots, the
    positive one of +/-(r + s) or +/-(r - s) that is a root closes the line."""
    pos = list(rs.positive)
    index = {r: i for i, r in enumerate(pos)}

    def pos_rep(v):
        neg = tuple(-a for a in v)
        if v in index:
            return v
        if neg in index:
            return neg
        return None

    lines = set()
    for i, r in enumerate(pos):
        for j in range(i + 1, len(pos)):
            s = pos[j]
            if rs.form(r, s) == 0:
                continue
            for cand in (
                tuple(a + b for a, b in zip(r, s)),
                tuple(a - b for a, b in zip(r, s)),
            ):
                t = pos_rep(cand)
                if t is not None and t != r and t != s:
                    lines.add(tuple(sorted((i, j, index[t]))))
                    break
    labels = ["(%s)" % ",".join(str(a) for a in r) for r in pos]
    return PartialTripleSystem(len(pos), sorted(lines), labels=labels)


@pytest.mark.parametrize("name", ["A%d" % n for n in range(1, 10)]
                         + ["D%d" % n for n in range(2, 10)] + ["E6", "E7", "E8"])
def test_gamma_of_rootsystem_matches_the_pairwise_construction(name):
    rs = root_system_from_name(name)
    gam, ref = gamma_of_rootsystem(rs), _gamma_of_rootsystem_reference(rs)
    assert gam.lines == ref.lines
    assert gam.labels == ref.labels


def test_gamma_rejects_non_simply_laced():
    with pytest.raises(GeometryError):
        gamma_of_rootsystem(root_system_from_name("B2"))


def test_gamma_of_sym4_is_p2_dual():
    gam = gamma_of_group(build_sym(4))
    assert pts_isomorphic(gam, build_p2_dual()) is not None


def test_gamma_of_group_rejects_large_product_orders():
    g = build_sym(4)
    # (12) against (13)(24): both involutions, product of order 4
    fake = copy.copy(g)
    fake._d = [(1, 0, 2, 3), (2, 3, 0, 1)]
    with pytest.raises(GeometryError):
        gamma_of_group(fake)


def test_is_fischer_flags_isolated_points():
    sp = PartialTripleSystem(4, [(0, 1, 2)])
    res = is_fischer(sp)
    assert res.is_fischer
    assert not res.nondegenerate


def test_every_3transposition_realization_yields_a_fischer_space(su32_group):
    from matsuo.groups import is_3transposition
    realizations = [
        build_sym(4),
        build_sym(5),
        build_3sq2(),
        build_wk_affine_a(2, 3),
        build_wk_affine_a(3, 3),
    ]
    for g in realizations:
        assert is_3transposition(g).ok
        res = is_fischer(gamma_of_group(g))
        assert res.is_fischer and res.nondegenerate
    # the presented rank-4 quotient: 36 involutions, every product order <= 3
    gam = gamma_of_group(su32_group)
    res = is_fischer(gam)
    assert res.is_fischer and res.nondegenerate
    assert not res.symplectic


def test_gamma_of_3sq2_is_p3():
    gam = gamma_of_group(build_3sq2())
    assert pts_isomorphic(gam, build_p3()) is not None


def test_gamma_of_sym_n_is_gamma_of_type_a():
    for n in (4, 5):
        gam_g = gamma_of_group(build_sym(n))
        gam_r = gamma_of_rootsystem(root_system_from_name("A%d" % (n - 1)))
        assert pts_isomorphic(gam_g, gam_r) is not None


def test_isomorphism_identity_and_distinct_sizes():
    p3 = build_p3()
    m = pts_isomorphic(p3, p3)
    assert m is not None
    assert pts_isomorphic(build_p2_dual(), p3) is None


def test_non_isomorphic_same_size():
    # six points: one line versus four lines
    sp = PartialTripleSystem(6, [(0, 1, 2)])
    assert pts_isomorphic(sp, build_p2_dual()) is None


def test_intersecting_line_pairs_generate_expected_closures():
    # in the order-3 plane every intersecting pair generates all nine points;
    # in a type-A triple system it generates a six-point subplane
    p3 = build_p3()
    for i, l1 in enumerate(p3.lines):
        for l2 in p3.lines[i + 1:]:
            if set(l1) & set(l2):
                assert len(subspace_closure(p3, set(l1) | set(l2))) == 9
    gam = gamma_of_rootsystem(root_system_from_name("A4"))
    for i, l1 in enumerate(gam.lines):
        for l2 in gam.lines[i + 1:]:
            if set(l1) & set(l2):
                assert len(subspace_closure(gam, set(l1) | set(l2))) == 6


def test_space_text_round_trip():
    p3 = build_p3()
    data = space_to_json_dict(p3)
    again = space_from_json_dict(data)
    assert again.lines == p3.lines and again.labels == p3.labels


@pytest.mark.parametrize("data", [
    {}, [], "points", None, {"points": 3}, {"lines": []},
    {"points": 3, "lines": [[1, 2, "x"]]}, {"points": 3, "lines": [[1, 2]]},
    {"points": True, "lines": []}, {"points": -1, "lines": []},
    {"points": 3.0, "lines": []}, {"points": 3, "lines": [[1, 2, True]]},
    {"points": 3, "lines": "123"}, {"points": 3, "lines": [[1, 2, 4]]},
    {"points": 3, "lines": [], "labels": "abc"},
    {"points": 3, "lines": [], "labels": []},
    {"points": 3, "lines": [], "labels": ["a", "b"]},
    {"points": 3, "lines": [], "labels": ["a", "b", 3]},
    {"points": 201, "lines": []},
])
def test_space_from_json_dict_rejects_malformed_input(data):
    with pytest.raises(GeometryError):
        space_from_json_dict(data)


def _assert_valid_or_refused(parse, data):
    try:
        space = parse(data)
    except ValueError:
        return
    assert isinstance(space, PartialTripleSystem)


_SPACES = [build_p3(), build_p2_dual()]


def _with_line(data, at, line):
    """The space's JSON with its lines cut at `at` and `line`, if any, appended."""
    return dict(data, lines=data["lines"][:at] + ([] if line is None else [line]))


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 12) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12)


@settings(max_examples=300, deadline=None)
@given(_JSON
       | st.builds(_with_line, st.sampled_from(_SPACES).map(space_to_json_dict),
                   st.integers(0, 12),
                   st.none() | st.lists(st.integers(-1, 12), max_size=4) | _JSON)
       | st.fixed_dictionaries(
           {"points": st.integers(-1, 12) | st.integers() | _JSON,
            "lines": st.lists(st.lists(st.integers(-1, 12), min_size=2, max_size=4),
                              max_size=6) | _JSON},
           optional={"labels": st.lists(st.text(max_size=2), max_size=12) | _JSON}))
def test_space_from_json_dict_on_any_value(data):
    _assert_valid_or_refused(space_from_json_dict, data)
