"""Finite group realizations and coset enumeration.

Two kinds of realization share one duck-typed surface (identity, mul, inv,
generators, D): permutation tuples on one product and one inverse, and
cosets of a finitely presented group coming out of the Todd-Coxeter
enumerator.  Elements are always hashable values with structural equality.
Sym(n) and 3^2:2 permute points; W_k(affine A_n) = k^(n+1):Sym(n+1)
permutes the sets {x : x_j - x_i = a}, faithfully modulo the diagonal.

Presentations are built in code: a relator is a tuple of letters, 2i for
generator i and 2i + 1 for its inverse, and the extra relators of the two
presented rank-4 groups are written as letter words of the shape (x^w y)^3.
``parse_word`` reads only space-separated generator names.  The enumerator
takes involutory presentations only, those in which every generator has a
square relator, as the generators of a 3-transposition group are
involutions.  Its table has one column per generator.
"""

import os
from array import array
from dataclasses import dataclass, field
from operator import itemgetter

from .fields import _is_prime

DEFAULT_MAX_COSETS = 2_000_000
ELEMENT_CAP = 1_000_000


class GroupError(ValueError):
    pass


class ClosureBudgetError(GroupError):
    """A closure outgrew ``ELEMENT_CAP``: its answer is unknown, not wrong."""


def _closure(seeds, step, what):
    """The elements reached from the seeds by repeated ``step(x)``, which
    gives the neighbours of x, in breadth-first discovery order.  Raises
    ClosureBudgetError, naming the closure as ``what``, past ``ELEMENT_CAP``
    elements."""
    seen = dict.fromkeys(seeds)
    queue = list(seen)
    for x in queue:
        for y in step(x):
            if y not in seen:
                if len(seen) >= ELEMENT_CAP:
                    raise ClosureBudgetError("%s exceeded cap %d"
                                             % (what, ELEMENT_CAP))
                seen[y] = None
                queue.append(y)
    return queue


def mulclose(gens, mul, identity):
    """Breadth-first closure of generators; deterministic discovery order.
    Raises ClosureBudgetError past ``ELEMENT_CAP`` elements."""
    return _closure([identity], lambda x: [mul(x, g) for g in gens],
                    "element closure")


def conjugacy_closure(seeds, gens, mul, inv):
    """Closure of seed elements under conjugation by the given generators,
    within ``ELEMENT_CAP`` elements."""
    pairs = [(inv(g), g) for g in gens]
    return _closure(seeds, lambda x: [mul(mul(gi, x), g) for gi, g in pairs],
                    "conjugacy closure")


class GroupRealization:
    """A finite group given by explicit element values and callables."""

    def __init__(self, name, identity, mul, inv, generators, d_seeds,
                 label_fn=None, elements=None):
        self.name = name
        self.identity = identity
        self.mul = mul
        self.inv = inv
        self.generators = list(generators)
        self._d_seeds = list(d_seeds)
        self._d = None
        self._label_fn = label_fn
        self._elements = list(elements) if elements is not None else None

    @property
    def D(self):
        if self._d is None:
            self._d = conjugacy_closure(
                self._d_seeds, self.generators, self.mul, self.inv
            )
        return self._d

    def elements(self):
        if self._elements is None:
            self._elements = mulclose(self.generators, self.mul, self.identity)
        return self._elements

    def order(self):
        return len(self.elements())

    def conjugate(self, x, g):
        return self.mul(self.mul(self.inv(g), x), g)

    def order_of_product(self, c, d):
        """The order of cd, when it is at most 64."""
        x = self.mul(c, d)
        acc = x
        for k in range(1, 65):
            if acc == self.identity:
                return k
            acc = self.mul(acc, x)
        raise GroupError("product order exceeds cap 64")

    def point_labels(self):
        if self._label_fn is None:
            return [str(i) for i in range(len(self.D))]
        return [self._label_fn(d) for d in self.D]

    def __repr__(self):
        return "GroupRealization(%s)" % self.name


@dataclass
class TranspositionCheck:
    ok: bool
    reason: str = ""
    witness: tuple = None

    def __bool__(self):
        return self.ok


def is_3transposition(group):
    """Whether (G, D) is a 3-transposition group: D consists of involutions,
    is closed under conjugation, generates G, and |cd| <= 3 for c, d in D."""
    d_list = group.D
    if not d_list:
        return TranspositionCheck(False, "empty involution set")
    for d in d_list:
        if group.mul(d, d) != group.identity:
            return TranspositionCheck(False, "not an involution", (d,))
    d_set = set(d_list)
    for d in d_list:
        for g in group.generators:
            if group.conjugate(d, g) not in d_set:
                return TranspositionCheck(
                    False, "involution set not closed under conjugation", (d, g)
                )
    full = set(group.elements())
    span = set(mulclose(d_list, group.mul, group.identity))
    if span != full:
        return TranspositionCheck(False, "involutions do not generate the group")
    for i, c in enumerate(d_list):
        for d in d_list[i + 1:]:
            if group.order_of_product(c, d) > 3:
                return TranspositionCheck(False, "product order exceeds 3", (c, d))
    return TranspositionCheck(True)


# ---------------------------------------------------------------------------
# Permutation realizations


def _perm_mul(p, q):
    """The product p then q, i -> q[p[i]], as a tuple gathered at C level
    by ``itemgetter(*p)(q)``.  Below length 2 itemgetter() raises and
    itemgetter(i) returns a scalar, so those take the generator path."""
    if len(p) > 1:
        return itemgetter(*p)(q)
    return tuple(q[i] for i in p)


def _perm_inv(p):
    inv = [0] * len(p)
    for i, j in enumerate(p):
        inv[j] = i
    return tuple(inv)


def _perm_cycles(p):
    seen = set()
    out = []
    for i in range(len(p)):
        if i in seen or p[i] == i:
            seen.add(i)
            continue
        cyc = [i]
        j = p[i]
        while j != i:
            cyc.append(j)
            seen.add(j)
            j = p[j]
        seen.add(i)
        out.append("(" + " ".join(str(x + 1) for x in cyc) + ")")
    return "".join(out) or "()"


def _transposition(n, i, j):
    img = list(range(n))
    img[i], img[j] = img[j], img[i]
    return tuple(img)


def build_sym(n):
    """Sym(n) on n points; distinguished involutions are all transpositions."""
    if n < 2:
        raise GroupError("build_sym needs n >= 2")
    gens = [_transposition(n, i, i + 1) for i in range(n - 1)]
    return GroupRealization(
        "Sym(%d)" % n,
        tuple(range(n)),
        _perm_mul,
        _perm_inv,
        gens,
        d_seeds=gens,
        label_fn=_perm_cycles,
    )


def build_3sq2():
    """The group 3^2:2 acting on the 9 points of F_3^2: translations extended
    by the point reflection x -> -x; its 9 involutions are the reflections."""
    pts = [(a, b) for a in range(3) for b in range(3)]
    index = {p: i for i, p in enumerate(pts)}

    def perm_of(fn):
        return tuple(index[fn(p)] for p in pts)

    neg = perm_of(lambda p: ((-p[0]) % 3, (-p[1]) % 3))
    t10 = perm_of(lambda p: ((p[0] + 1) % 3, p[1]))
    t01 = perm_of(lambda p: (p[0], (p[1] + 1) % 3))
    return GroupRealization(
        "3^2:2",
        tuple(range(9)),
        _perm_mul,
        _perm_inv,
        [neg, t10, t01],
        d_seeds=[neg],
        label_fn=_perm_cycles,
    )


# ---------------------------------------------------------------------------
# Affine realizations modulo the diagonal


def _affine_generators(k, m, n):
    """Adjacent swaps of the first m of n coordinates plus the wrap-around
    swap of coordinates 1 and m with translation e_1 - e_m, as
    (permutation, translation) pairs over F_k."""
    zero = (0,) * n
    swaps = [(_transposition(n, i, i + 1), zero) for i in range(m - 1)]
    t = [0] * n
    t[0], t[m - 1] = 1, k - 1
    return swaps, (_transposition(n, 0, m - 1), tuple(t))


def _affine_group(name, k, n, raw_gens):
    """The group generated by (permutation, translation) pairs on n
    coordinates over F_k, modulo the diagonal translation, acting on the
    n(n-1)k/2 points (i, j, a) with i < j and a in range(k): the sets
    {x : x_j - x_i = a}, which (j, i, -a) names too.

    The pair (p, t) is the map x -> xP + t, where row i of the permutation
    matrix P has its 1 in column p[i]; it sends {x : x_j - x_i = a} to
    (p[i], p[j], a + t[p[j]] - t[p[i]]), so maps applied one after the other
    compose as ``_perm_mul`` does.  For n >= 3 only the pairs with p = 1 and
    t constant fix every point: the action is faithful modulo the diagonal."""
    points = [(i, j, a) for i in range(n) for j in range(i + 1, n)
              for a in range(k)]
    index = {}
    for x, (i, j, a) in enumerate(points):
        index[i, j, a] = index[j, i, -a % k] = x
    gens = [tuple(index[p[i], p[j], (a + t[p[j]] - t[p[i]]) % k]
                  for i, j, a in points) for p, t in raw_gens]
    return GroupRealization(name, tuple(range(len(points))), _perm_mul,
                            _perm_inv, gens, d_seeds=gens)


def build_wk_affine_a(k, n):
    """The 3-transposition group W_k(affine A_n): the F_k-permutation module
    extension of Sym(n+1), modulo the diagonal translation.  Elements are
    permutations of the (n+1)nk/2 points of ``_affine_group``."""
    if n < 2:
        raise GroupError("build_wk_affine_a needs n >= 2")
    if not _is_prime(k):
        raise GroupError("modulus %r must be prime" % (k,))
    swaps, d = _affine_generators(k, n + 1, n + 1)
    return _affine_group("W%d(affA%d)" % (k, n), k, n + 1, swaps + [d])


def wk_embedding_subgroup(k, r):
    """Inside W_k(affine A_(r-1)), the subgroup generated by the four
    elements that replay the affine-A_3 generators on the first four
    coordinates.  Used to embed W_k(affine A_3) for r >= 5."""
    if r < 5:
        raise GroupError("embedding requires r >= 5")
    swaps, d = _affine_generators(k, 4, r)
    return _affine_group("W%d(affA%d)<block>" % (k, r - 1), k, r, swaps + [d])


def generator_homomorphism(g1, g2):
    """Extend the generator pairing g1 -> g2 to a homomorphism on all of g1,
    or return None if the extension is inconsistent (some relation of g1
    fails in g2).  The pairs generate a subgroup of g1 x g2, at most
    |g1| |g2| elements; it is the graph of a map exactly when no element of
    g1 occurs in it twice."""
    if len(g1.generators) != len(g2.generators):
        return None
    graph = mulclose(
        list(zip(g1.generators, g2.generators)),
        lambda a, b: (g1.mul(a[0], b[0]), g2.mul(a[1], b[1])),
        (g1.identity, g2.identity),
    )
    hom = dict(graph)
    return hom if len(hom) == len(graph) else None


# ---------------------------------------------------------------------------
# Presentations


@dataclass
class Presentation:
    generator_names: list
    relators: list = field(default_factory=list)  # words over letters 2i / 2i+1

    @property
    def ngens(self):
        return len(self.generator_names)

    def relator_words(self):
        return [tuple(w) for w in self.relators]


def _free_reduce(word):
    out = []
    for letter in word:
        if out and out[-1] == letter ^ 1:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def _invert_word(word):
    return tuple(l ^ 1 for l in reversed(word))


def parse_word(expr, generator_names):
    """The word of space-separated generator names, such as ``"a b c"``, as
    the letters 2i of the names' positions."""
    index = {name: 2 * i for i, name in enumerate(generator_names)}
    if len(index) != len(generator_names):
        raise GroupError("a generator is named twice in %r" % (generator_names,))
    try:
        return tuple(index[t] for t in expr.split())
    except KeyError as err:
        raise GroupError("%r names no generator" % err.args[0]) from None


def _cube_relator(x, w, y):
    """The relator (x^w y)^3 over the letters 2i, where x^w = w^-1 x w."""
    return _free_reduce((_invert_word(w) + (x,) + w + (y,)) * 3)


def coxeter_presentation(names, edges):
    """Coxeter-type presentation on a graph: generators are involutions,
    products have order 3 across an edge and order 2 otherwise."""
    edges = {frozenset(e) for e in edges}
    pres = Presentation(list(names))
    n = len(names)
    for i in range(n):
        pres.relators.append((2 * i, 2 * i))
    for i in range(n):
        for j in range(i + 1, n):
            order = 3 if frozenset((names[i], names[j])) in edges else 2
            pres.relators.append(_free_reduce((2 * i, 2 * j) * order))
    return pres


def su32_quotient_presentation():
    """Presentation of the rank-4 group of shape 2^(1+6):SU3(2)': the Coxeter
    group on the complete 4-graph minus one edge, with three extra cube
    relators."""
    names = ["a", "b", "c", "d"]
    edges = [("a", "b"), ("a", "c"), ("a", "d"), ("b", "d"), ("c", "d")]
    pres = coxeter_presentation(names, edges)
    a, b, c, d = 0, 2, 4, 6
    pres.relators += [
        _cube_relator(a, (b,), d),  # (a^b d)^3
        _cube_relator(a, (c,), d),  # (a^c d)^3
        _cube_relator(a, (b, c), d),  # (a^{bc} d)^3
    ]
    return pres


def hall_quotient_presentation():
    """Presentation of Hall's rank-4 group of shape 3^10:2: the Coxeter group
    on the complete 4-graph with seven extra cube relators."""
    names = ["a", "b", "c", "d"]
    edges = [
        ("a", "b"), ("a", "c"), ("a", "d"),
        ("b", "c"), ("b", "d"), ("c", "d"),
    ]
    pres = coxeter_presentation(names, edges)
    a, b, c, d = 0, 2, 4, 6
    pres.relators += [
        _cube_relator(b, (c,), d),  # (b^c d)^3
        _cube_relator(a, (b,), c),  # (a^b c)^3
        _cube_relator(a, (b,), d),  # (a^b d)^3
        _cube_relator(a, (c,), d),  # (a^c d)^3
        _cube_relator(a, (b, d), c),  # (a^{bd} c)^3
        _cube_relator(a, (c, d), b),  # (a^{cd} b)^3
        _cube_relator(a, (d, c), b),  # (a^{dc} b)^3
    ]
    return pres


# ---------------------------------------------------------------------------
# Todd-Coxeter coset enumeration


class CosetTable:
    """A coset table with one column per generator, each generator its own
    inverse: a letter's column is ``letter >> 1``."""

    def __init__(self, presentation, subgroup_words, table, ncols, complete,
                 total_defined):
        self.presentation = presentation
        self.subgroup_words = list(subgroup_words)
        self.table = table
        self.ncols = ncols
        self.complete = complete
        self.total_defined = total_defined

    @property
    def n_cosets(self):
        return len(self.table)

    @property
    def status(self):
        return "complete" if self.complete else "incomplete"

    def verify(self):
        """Check that each generator acts as an involutive permutation, every
        relator acts trivially from every coset, and subgroup words fix
        coset 0.

        A column is checked by one gather, ``_perm_mul(col, col)``: it is
        the identity exactly when the column is an involutive permutation of
        the cosets.  A negative entry col[i] = -k cannot pass, though Python
        reads it as the index n - k: the gather needs col[n - k] = i and
        then gives col[i] = -k at n - k.  An entry past the end raises
        IndexError.  A relator u^m with u one letter and m even then holds
        already, so only the others are composed, by ``_perm_mul``."""
        if not self.complete:
            raise GroupError("cannot verify an incomplete table")
        idx = tuple(range(self.n_cosets))
        columns = list(zip(*self.table))
        try:
            if any(_perm_mul(col, col) != idx for col in columns):
                return False
        except IndexError:
            return False
        for w in self.presentation.relator_words():
            if not w:
                continue
            cols, m = _shortest_period([l >> 1 for l in w])
            if len(cols) == 1 and m % 2 == 0:
                continue
            # the relator is u^m: compose u's map once, then raise it to m
            period = columns[cols[0]]
            for col in cols[1:]:
                period = _perm_mul(period, columns[col])
            acc = period
            for _ in range(m - 1):
                acc = _perm_mul(acc, period)
            if acc != idx:
                return False
        for w in self.subgroup_words:
            acc = 0
            for letter in w:
                acc = self.table[acc][letter >> 1]
            if acc != 0:
                return False
        return True

    def group(self):
        """The regular realization: cosets over the trivial subgroup are the
        group elements themselves, multiplied through representative words.

        The words are those of a breadth-first tree from coset 0, stored as
        each coset's parent and the column that reaches it from there; a
        word is read by walking the tree up from its coset, so none is kept."""
        if self.subgroup_words:
            raise GroupError("regular realization needs a trivial subgroup")
        if not self.complete:
            raise GroupError("incomplete enumeration")
        table = self.table
        n = self.n_cosets
        parent = array("l", [-1]) * n
        column = array("l", [0]) * n
        parent[0] = 0
        queue = [0]
        for c in queue:
            for col, d in enumerate(table[c]):
                if parent[d] < 0:
                    parent[d] = c
                    column[d] = col
                    queue.append(d)

        def mul(x, y):
            word = []
            while y:
                word.append(column[y])
                y = parent[y]
            for col in reversed(word):
                x = table[x][col]
            return x

        def inv(x):
            c = 0
            while x:
                c = table[c][column[x]]
                x = parent[x]
            return c

        gens = table[0]
        return GroupRealization(
            "presented<%s>" % ",".join(self.presentation.generator_names),
            0,
            mul,
            inv,
            gens,
            d_seeds=gens,
            elements=list(range(n)),
        )


def _shortest_period(word):
    """The shortest u with word == u * m, and m."""
    n = len(word)
    for p in range(1, n + 1):
        if n % p == 0 and word[:p] * (n // p) == word:
            return word[:p], n // p


def _cut_positions(word):
    """The positions k, 0 < k < len(word), from which the closed walk of a
    column word reads the word again: forwards where rotating the word by k
    gives it back, backwards where rotating the reversed word does."""
    n = len(word)
    back = word[::-1]
    return [k for k in range(1, n)
            if word[k:] + word[:k] == word or back[n - k:] + back[:n - k] == word]


def _coset_budget():
    value = os.environ.get("MATSUO_MAX_COSETS", str(DEFAULT_MAX_COSETS))
    try:
        return int(value)
    except ValueError:
        raise GroupError("MATSUO_MAX_COSETS must be an integer, not %r"
                         % value) from None


class _Overflow(Exception):
    pass


def todd_coxeter(pres, subgroup=(), max_cosets=None, variant=0):
    """Coset enumeration over a subgroup given by generator words.

    Every generator must be an involution: a presentation in which some
    generator has no square relator is refused with GroupError before any
    coset is defined, as is a relator or subgroup letter outside
    ``range(2 * ngens)``.  So the table has one column per generator, each
    generator its own inverse, and a letter's column is ``letter >> 1``.
    Relator-driven filling with first-touch coset numbering; coincidences are
    processed through a union-find with path compression.  Once a relator
    closes at a coset, it also closes at the cosets where its cycle reads it
    again; the scan records the cosets it walks through, and those at the
    word's cut positions are marked and not rescanned, because a scan there
    would change nothing, so the table is the one rescanning everything gives.
    A scan that must define cosets defines along its gap in one run and
    stops only where a walk could move again, so it makes the definitions
    that defining one coset and walking both ends again would make.
    ``variant`` selects an alternative deterministic processing order
    (rotated relators, reversed relator list) so that coset counts can be
    cross-checked between two independent runs.  Returns an incomplete table
    instead of guessing if the budget is exhausted.
    """
    if max_cosets is None:
        max_cosets = _coset_budget()
    subgroup = subgroup or ()
    ncols = pres.ngens
    bad = [l for w in [*pres.relator_words(), *subgroup] for l in w
           if not 0 <= l < 2 * ncols]
    if bad:
        raise GroupError("letter %r names no generator; letters run over "
                         "range(%d)" % (bad[0], 2 * ncols))
    relators = [_free_reduce(w) for w in pres.relator_words()]
    squares = {w[0] >> 1 for w in relators if len(w) == 2 and w[0] == w[1]}
    for i, name in enumerate(pres.generator_names):
        if i not in squares:
            raise GroupError("generator %r has no square relator; the coset "
                             "enumerator takes involutions only" % name)
    # one column per generator, its own inverse, so the squares hold
    rel_cols = [[l >> 1 for l in w] for w in relators
                if w and not (len(w) == 2 and w[0] == w[1])]
    sub_cols = [[l >> 1 for l in w] for w in subgroup]
    if variant:
        rel_cols = [w[1:] + w[:1] if len(w) > 1 else w for w in rel_cols]
        rel_cols = list(reversed(rel_cols))

    table = [[-1] * ncols]
    parent = [0]
    ndead = 0
    # Bit r of marks[c] says relator r is known to close at coset c, so a scan
    # of it from c would change nothing.  Only the first 64 relators are
    # tracked, and only those whose cycle reads them again from another coset;
    # two bytes a coset hold the marks while there are at most 16 relators.
    marks = array("H" if len(rel_cols) <= 16 else "Q", [0])
    # A scan is (word, mark bit, cut positions).  Coset 0 first scans the
    # subgroup words, which carry no marks.
    scans = [(w, 1 << r if r < 64 else 0, _cut_positions(w) if r < 64 else ())
             for r, w in enumerate(rel_cols)]
    first_scans = [(w, 0, ()) for w in sub_cols] + scans
    # the marks of a coset that needs none of the scans
    bits = [bit for _, bit, _ in scans]
    every = sum(bits) if bits and all(bits) else -1
    # path[k] is the coset alpha w[:k] that a scan of w from alpha visits
    path = [0] * (max(map(len, rel_cols + sub_cols), default=0) + 1)

    def rep(c):
        r = c
        while parent[r] != r:
            r = parent[r]
        while parent[c] != r:
            parent[c], c = r, parent[c]
        return r

    def coincidence(a, b):
        """Merge the live cosets a != b and every coincidence that follows.
        Returns the number of cosets that died."""
        if a > b:
            a, b = b, a
        parent[b] = a
        marks[a] |= marks[b]  # a coincidence maps closed walks to closed walks
        queue = [b]
        for gamma in queue:
            row = table[gamma]
            for x in range(ncols):
                delta = row[x]
                if delta < 0:
                    continue
                table[delta][x] = -1
                # read the representatives inline and walk a path only where
                # there is one; gamma is dead, so its parent is the first step
                mu = parent[gamma]
                if parent[mu] != mu:
                    mu = rep(gamma)
                nu = delta if parent[delta] == delta else rep(delta)
                t = table[mu][x]
                if t < 0:
                    t = table[nu][x]
                    if t < 0:
                        table[mu][x] = nu
                        table[nu][x] = mu
                        continue
                    a = mu
                else:
                    a = nu
                b = t if parent[t] == t else rep(t)
                if a != b:
                    if a > b:
                        a, b = b, a
                    parent[b] = a
                    marks[a] |= marks[b]
                    queue.append(b)
            table[gamma] = None
        return len(queue)

    try:
        alpha = 0
        while alpha < len(table):
            if table[alpha] is None:
                alpha += 1
                continue
            # only a coincidence that alpha survives changes the marks that
            # its later scans read
            closed = marks[alpha]
            todo = first_scans if alpha == 0 else () if closed == every else scans
            for w, bit, cuts in todo:
                if closed & bit:
                    continue
                # HLT scan: walk w forwards and backwards from alpha, keeping
                # the cosets visited in path; deduce a gap of one letter, else
                # define a coset at the forward end and walk on
                f = b = alpha
                i = 0
                j = len(w) - 1
                while True:
                    while i <= j:
                        nxt = table[f][w[i]]
                        if nxt < 0:
                            break
                        f = nxt
                        i += 1
                        path[i] = f
                    while j >= i:
                        prv = table[b][w[j]]
                        if prv < 0:
                            break
                        b = path[j] = prv
                        j -= 1
                    if j < i:
                        break
                    if i == j:
                        table[f][w[i]] = b
                        table[b][w[i]] = f
                        break
                    # define along the gap w[i..j-1] while neither walk could
                    # move: a new row holds only the entry back to its parent,
                    # so stop once it holds the next letter, or after one
                    # definition if that writes the entry the backward walk
                    # stopped on
                    last = i + 1 if f == b and w[i] == w[j] else j
                    while True:
                        n = len(table)
                        if n - ndead >= max_cosets:
                            raise _Overflow
                        row = [-1] * ncols
                        row[w[i]] = f
                        table.append(row)
                        parent.append(n)
                        marks.append(0)
                        table[f][w[i]] = n
                        f = n
                        i += 1
                        path[i] = f
                        if i == last or w[i] == w[i - 1]:
                            break
                if j < i and f != b:
                    ndead += coincidence(f, b)
                    if table[alpha] is None:
                        break
                    closed = marks[alpha]
                    # the merge may have killed cosets on the walk; walk the
                    # merged table so that their survivors get the marks
                    c = alpha
                    for k in range(1, len(w)):
                        c = path[k] = table[c][w[k - 1]]
                # the relator closes at alpha, so it reads again at each cut
                for k in cuts:
                    marks[path[k]] |= bit
            row = table[alpha]
            if row is not None and -1 in row:
                for x in range(ncols):
                    if row[x] < 0:
                        n = len(table)
                        if n - ndead >= max_cosets:
                            raise _Overflow
                        new = [-1] * ncols
                        new[x] = alpha
                        table.append(new)
                        parent.append(n)
                        marks.append(0)
                        row[x] = n
            alpha += 1
    except _Overflow:
        return CosetTable(pres, subgroup, [], ncols, False, len(table))

    # compact live cosets in place, preserving first-touch order; a live
    # row holds live cosets only, as each coincidence moves every entry
    remap = [-1] * len(table)
    live = []
    for c, row in enumerate(table):
        if row is not None:
            remap[c] = len(live)
            live.append(row)
    for row in live:
        row[:] = map(remap.__getitem__, row)
    return CosetTable(pres, subgroup, live, ncols, True, len(table))
