"""Partial triple systems, the Fischer-space axiom, the two canonical planes,
simply-laced root systems and the triple systems they span.

Points are 0-based indices with optional string labels.  Lines are sorted
3-tuples of point indices.
"""

import re
from dataclasses import dataclass
from itertools import combinations
from operator import add

from .fields import check_digits


class GeometryError(ValueError):
    pass


class PartialTripleSystem:
    """A point-line geometry where every line has exactly three points and two
    distinct lines share at most one point.  The axioms are checked once, when
    the system is built: a GeometryError names the first line that breaks one,
    or else the least pair of lines that share two points."""

    def __init__(self, n_points, lines, labels=None):
        self.n_points = n_points
        self.lines = sorted(tuple(sorted(l)) for l in lines)
        self.labels = ([str(i + 1) for i in range(n_points)] if labels is None
                       else list(labels))
        if len(self.labels) != n_points:
            raise GeometryError("label count does not match point count")
        seen = set()
        for line in self.lines:
            if len(line) != 3 or len(set(line)) != 3:
                raise GeometryError("line %r does not have 3 distinct points" % (line,))
            if line[0] < 0 or line[-1] >= n_points:
                raise GeometryError("line %r uses an unknown point" % (line,))
            if line in seen:
                raise GeometryError("line %r repeated" % (line,))
            seen.add(line)
        # two lines share two points exactly when a point pair comes round
        # again; the least such pair of lines, which a pairwise scan reports,
        # holds the first line through its point pair, the one the wedge names
        wedge = {}
        adj = [set() for _ in range(n_points)]
        through = [[] for _ in range(n_points)]
        clashes = []
        for line in self.lines:
            a, b, c = line
            for x, y, z in ((a, b, c), (a, c, b), (b, c, a)):
                through[z].append(line)
                adj[z].update((x, y))
                if (x, y) in wedge:
                    clashes.append((tuple(sorted((x, y, wedge[x, y]))), line))
                else:
                    wedge[x, y] = wedge[y, x] = z
        if clashes:
            raise GeometryError("lines %r and %r share 2 points" % min(clashes))
        self._wedge = wedge
        self._adj = adj
        self._lines_through = through

    def wedge(self, x, y):
        try:
            return self._wedge[(x, y)]
        except KeyError:
            raise GeometryError("points %d and %d are not collinear" % (x, y))

    def collinear(self, x, y):
        return y in self._adj[x]

    def neighbours(self, x):
        return sorted(self._adj[x])

    def lines_through(self, x):
        return list(self._lines_through[x])

    def isolated_points(self):
        return [p for p in range(self.n_points) if not self._adj[p]]

    def __repr__(self):
        return "PartialTripleSystem(%d points, %d lines)" % (
            self.n_points,
            len(self.lines),
        )


def subspace_closure(space, points):
    """Smallest wedge-closed subset containing the given points.

    One pass over a growing list: each point, when its turn comes, is paired
    with every point before it, so each pair is looked up once."""
    wedge = space._wedge
    current = set(points)
    order = list(current)
    for k, x in enumerate(order):
        for y in order[:k]:
            z = wedge.get((x, y))
            if z is not None and z not in current:
                current.add(z)
                order.append(z)
    return current


@dataclass
class FischerCheck:
    is_fischer: bool
    symplectic: bool
    nondegenerate: bool
    offending: tuple = None

    def __bool__(self):
        return self.is_fischer


def is_fischer(space):
    """Decide the Fischer-space axiom: any two intersecting lines generate the
    dual affine plane of order 2 or the affine plane of order 3.

    Counting decides it, with no isomorphism search.  The closure of two
    meeting lines is wedge-closed, so a line with two points in it lies in it,
    and the lines inside number the collinear point pairs inside over 3.
    - 6 points and 4 lines: with d_p lines through the point p, the lines
      make sum d_p = 12 incidences, so sum d_p(d_p - 1)/2 >= 6, with equality
      only when every d_p = 2.  That sum counts the meeting pairs of lines,
      at most the 6 pairs there are, as two lines meet at most once.  So
      every point is the meet of exactly one pair of the 4 lines: the dual
      affine plane of order 2.
    - 9 points and 12 lines: the lines cover 12 * 3 = 36 point pairs, each at
      most once, so every pair of the 9 points exactly once.  That is a
      Steiner triple system on 9 points, and the only one is the affine
      plane of order 3.
    Any other shape breaks the axiom, and the first meeting pair of lines
    with one, in the order of combinations(space.lines, 2), is reported.

    The meeting pairs are the pairs of lines through each point, listed in
    line order there, and two lines meet at most once, so each pair comes up
    exactly once."""
    adj = space._adj
    saw_p3 = False
    broken = []
    for through in space._lines_through:
        for l1, l2 in combinations(through, 2):
            closure = subspace_closure(space, set(l1) | set(l2))
            shape = (len(closure), sum(len(adj[x] & closure) for x in closure) // 6)
            if shape == (6, 4):
                continue
            if shape == (9, 12):
                saw_p3 = True
                continue
            broken.append((l1, l2))
    if broken:
        return FischerCheck(False, False, not space.isolated_points(), min(broken))
    return FischerCheck(True, not saw_p3, not space.isolated_points())


def build_p2_dual():
    """The dual affine plane of order 2: 6 points, 4 lines."""
    lines_1based = [(1, 2, 6), (2, 3, 4), (4, 5, 6), (1, 3, 5)]
    lines = [tuple(p - 1 for p in l) for l in lines_1based]
    return PartialTripleSystem(6, lines, labels=[f"p{i}" for i in range(1, 7)])


def build_p3():
    """The affine plane of order 3: 9 points, 12 lines."""
    lines_1based = [
        (1, 2, 3), (4, 5, 6), (7, 8, 9),
        (1, 4, 7), (2, 5, 8), (3, 6, 9),
        (1, 5, 9), (3, 5, 7),
        (1, 6, 8), (3, 4, 8),
        (2, 6, 7), (2, 4, 9),
    ]
    lines = [tuple(p - 1 for p in l) for l in lines_1based]
    return PartialTripleSystem(9, lines, labels=[f"p{i}" for i in range(1, 10)])


# The four parallel classes of the plane above, 0-based, rows class first.
P3_PARALLEL_CLASSES = [
    ((0, 1, 2), (3, 4, 5), (6, 7, 8)),
    ((0, 3, 6), (1, 4, 7), (2, 5, 8)),
    ((0, 4, 8), (2, 3, 7), (1, 5, 6)),
    ((2, 4, 6), (0, 5, 7), (1, 3, 8)),
]


# ---------------------------------------------------------------------------
# Root systems


@dataclass
class RootSystem:
    label: str
    rank: int
    ambient: int
    positive: list  # list of int tuples, one per +/- pair

    def form(self, r, s):
        return sum(a * b for a, b in zip(r, s))

    def norm(self, r):
        return self.form(r, r)

    def is_simply_laced(self):
        norms = {self.norm(r) for r in self.positive}
        return len(norms) == 1

    def root_set(self):
        out = set(self.positive)
        out |= {tuple(-a for a in r) for r in self.positive}
        return out

    def __repr__(self):
        return "RootSystem(%s, %d positive roots)" % (self.label, len(self.positive))


def _positive_half(vectors):
    """Keep one of each +/- pair: the lexicographically larger one."""
    out = set()
    for v in vectors:
        neg = tuple(-a for a in v)
        out.add(max(v, neg))
    return sorted(out)


def _e8_roots():
    roots = []
    for i in range(8):
        for j in range(i + 1, 8):
            for si in (1, -1):
                for sj in (1, -1):
                    v = [0] * 8
                    v[i], v[j] = 2 * si, 2 * sj
                    roots.append(tuple(v))
    for mask in range(256):
        v = [1 if mask & (1 << i) else -1 for i in range(8)]
        if v.count(-1) % 2 == 0:
            roots.append(tuple(v))
    # doubled coordinates keep everything integral (half-integers scaled by 2)
    return roots


def roots_of(label, rank=None):
    """Positive roots of the classical systems used here, as integer vectors.

    A_n sits in Z^(n+1) as {v_j - v_i : j < i} (plus sign on the earlier
    coordinate); D_n in Z^n; E6/E7/E8 use the even-coordinate model scaled by
    2 to stay integral; B2 and G2 use the explicit rank-2 realizations with a
    short and a long fundamental root.
    """
    label = label.upper()
    if label == "A":
        n = rank
        if n is None or n < 1:
            raise ValueError("A-type needs a rank >= 1")
        pos = []
        for i in range(1, n + 1):
            for j in range(i):
                v = [0] * (n + 1)
                v[j], v[i] = 1, -1
                pos.append(tuple(v))
        return RootSystem("A%d" % n, n, n + 1, sorted(pos))
    if label == "D":
        n = rank
        if n is None or n < 2:
            raise ValueError("D-type needs a rank >= 2")
        pos = []
        for i in range(n):
            for j in range(i + 1, n):
                for sj in (1, -1):
                    v = [0] * n
                    v[i], v[j] = 1, sj
                    pos.append(tuple(v))
        return RootSystem("D%d" % n, n, n, sorted(pos))
    if label in ("E6", "E7", "E8"):
        all_e8 = _e8_roots()
        if label == "E8":
            roots = all_e8
        elif label == "E7":
            # orthogonal to e7 + e8 (doubled model)
            w = (0, 0, 0, 0, 0, 0, 2, 2)
            roots = [r for r in all_e8 if sum(a * b for a, b in zip(r, w)) == 0]
        else:
            w1 = (0, 0, 0, 0, 0, 0, 2, 2)
            w2 = (0, 0, 0, 0, 0, 2, 2, 0)
            roots = [
                r
                for r in all_e8
                if sum(a * b for a, b in zip(r, w1)) == 0
                and sum(a * b for a, b in zip(r, w2)) == 0
            ]
        pos = _positive_half(roots)
        return RootSystem(label, int(label[1]), 8, pos)
    if label == "B2":
        pos = [(1, 0), (-1, 1), (0, 1), (1, 1)]
        return RootSystem("B2", 2, 2, pos)
    if label == "G2":
        a, b = (1, -1, 0), (-1, 2, -1)
        pos = [
            a,
            b,
            (0, 1, -1),      # a + b
            (1, 0, -1),      # 2a + b
            (2, -1, -1),     # 3a + b
            (1, 1, -2),      # 3a + 2b
        ]
        return RootSystem("G2", 2, 3, pos)
    raise ValueError("unsupported root system %r" % (label,))


# Most points a named geometry may give: its distinguished involutions or
# positive roots, each a basis vector of a dense dim**3 table.  Sym(16) and E8
# (120 points each) are the largest fixtures; 200 admits up to sym:20, A19 and
# D14.
MAX_NAMED_POINTS = 200


_TYPE_AND_RANK = re.compile(r"([A-Z])([1-9][0-9]*)")


def root_system_from_name(name):
    """Parse names like A4, D5, E6, B2, G2, in either case: a type letter and
    an ASCII rank without sign or leading zero.  A<n> and D<n> with more than
    MAX_NAMED_POINTS positive roots are refused before any root is built, and
    a well-formed name of another system with the list of supported ones."""
    name = name.strip().upper()
    if name in ("E6", "E7", "E8", "B2", "G2"):
        return roots_of(name)
    parts = _TYPE_AND_RANK.fullmatch(name)
    if not parts:
        raise GeometryError("unknown root system %r (expected a name such as "
                            "A4, D5 or E6)" % (name,))
    check_digits(name, "root system")
    label, rank = parts[1], int(parts[2])
    if label not in ("A", "D"):
        raise GeometryError("unsupported root system %r (supported: A<n>, D<n>, "
                            "E6, E7, E8, B2, G2)" % (name,))
    points = rank * (rank + 1) // 2 if label == "A" else rank * (rank - 1)
    if points > MAX_NAMED_POINTS:
        raise GeometryError("input too large: %s has %d positive roots, more than "
                            "the budget of %d" % (name, points, MAX_NAMED_POINTS))
    return roots_of(label, rank)


def gamma_of_rootsystem(rs):
    """The triple system on the positive roots: {r, s, t} is a line when the
    three roots lie in a common rank-2 simply-laced subsystem, i.e. when one
    of them is, up to sign, the sum or difference of the other two.

    Every such line is {a, b, a + b}, so one lookup per pair of roots finds
    it.  The positive roots are the lexicographically larger of each +/-
    pair, and that order is kept by addition, so a sum of two positive roots
    that is a root is positive.  And t = +/-(r +/- s) with all three positive
    leaves t = r + s, r = s + t or s = r + t (t = -(r + s) is negative), and
    no two of these hold at once, or else 2y = 0 for one of the roots y.  So
    exactly one member of each line is the sum of the other two, and the pair
    of those two finds the line, once."""
    if not rs.is_simply_laced():
        raise GeometryError("%s is not simply laced" % rs.label)
    pos = list(rs.positive)
    index = {r: i for i, r in enumerate(pos)}
    lines = []
    for i, r in enumerate(pos):
        for j in range(i + 1, len(pos)):
            k = index.get(tuple(map(add, r, pos[j])))
            if k is not None:
                lines.append(tuple(sorted((i, j, k))))
    labels = ["(%s)" % ",".join(str(a) for a in r) for r in pos]
    return PartialTripleSystem(len(pos), lines, labels=labels)


def gamma_of_group(group):
    """The triple system on the distinguished involutions D of a group: points
    are the elements of D, and {c, d, c^d} is a line whenever cd has order 3."""
    points = list(group.D)
    index = {d: i for i, d in enumerate(points)}
    lines = set()
    for i, c in enumerate(points):
        for j in range(i + 1, len(points)):
            d = points[j]
            order = group.order_of_product(c, d)
            if order > 3:
                raise GeometryError(
                    "product of involutions %d and %d has order %d" % (i, j, order)
                )
            if order == 3:
                w = group.conjugate(c, d)
                lines.add(tuple(sorted((i, j, index[w]))))
    return PartialTripleSystem(len(points), sorted(lines),
                               labels=group.point_labels())


def pts_isomorphic(s1, s2):
    """Line-preserving point bijection between two triple systems, or None.

    Backtracking over degree-compatible assignments; adequate for the small
    geometries handled here.
    """
    if s1.n_points != s2.n_points or len(s1.lines) != len(s2.lines):
        return None
    n = s1.n_points
    deg1 = [len(s1.lines_through(p)) for p in range(n)]
    deg2 = [len(s2.lines_through(p)) for p in range(n)]
    if sorted(deg1) != sorted(deg2):
        return None
    lineset2 = set(s2.lines)
    # order points of s1 so each new point is adjacent to already placed ones
    order = []
    placed = set()
    remaining = sorted(range(n), key=lambda p: -deg1[p])
    while remaining:
        pick = None
        for p in remaining:
            if any(s1.collinear(p, q) for q in placed):
                pick = p
                break
        if pick is None:
            pick = remaining[0]
        order.append(pick)
        placed.add(pick)
        remaining.remove(pick)

    mapping = {}
    used = set()

    def compatible(p, q):
        if deg1[p] != deg2[q]:
            return False
        for line in s1.lines_through(p):
            img = [mapping.get(x) for x in line]
            if all(y is not None or x == p for x, y in zip(line, img)):
                full = tuple(sorted(q if x == p else mapping[x] for x in line))
                if full not in lineset2:
                    return False
        # collinearity with every placed point must match
        for x, y in mapping.items():
            if s1.collinear(p, x) != s2.collinear(q, y):
                return False
        return True

    def extend(k):
        if k == n:
            return True
        p = order[k]
        for q in range(n):
            if q in used:
                continue
            if compatible(p, q):
                mapping[p] = q
                used.add(q)
                if extend(k + 1):
                    return True
                del mapping[p]
                used.discard(q)
        return False

    if extend(0):
        return dict(mapping)
    return None


# ---------------------------------------------------------------------------
# JSON interchange


def space_to_json_dict(space):
    return {
        "points": space.n_points,
        "labels": list(space.labels),
        "lines": [[p + 1 for p in line] for line in space.lines],
    }


def space_from_json_dict(data):
    """Read what space_to_json_dict writes: a point count, lines of three
    1-based point numbers and, optionally, one string label per point.  A
    space that breaks the axioms or has more than MAX_NAMED_POINTS points is
    refused."""
    get = data.get if isinstance(data, dict) else {}.get
    n, lines, labels = get("points"), get("lines"), get("labels")
    if not (type(n) is int and n >= 0 and isinstance(lines, list)
            and all(isinstance(l, list) and len(l) == 3
                    and all(type(p) is int for p in l) for l in lines)
            and (labels is None or isinstance(labels, list)
                 and all(isinstance(s, str) for s in labels))):
        raise GeometryError("a space is {'points': N, 'lines': [[a, b, c], ...]} "
                            "with optional string 'labels'")
    if n > MAX_NAMED_POINTS:
        raise GeometryError("input too large: %d points, more than the budget of %d"
                            % (n, MAX_NAMED_POINTS))
    return PartialTripleSystem(n, [tuple(p - 1 for p in l) for l in lines], labels)
