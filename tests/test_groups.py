import copy
import functools
import random
import re

import pytest
from hypothesis import given, seed, settings, strategies as st

from matsuo.constructions import embedding_check
from matsuo import groups
from matsuo.groups import (
    ClosureBudgetError,
    CosetTable,
    GroupError,
    Presentation,
    build_3sq2,
    build_sym,
    build_wk_affine_a,
    conjugacy_closure,
    coxeter_presentation,
    generator_homomorphism,
    hall_quotient_presentation,
    is_3transposition,
    mulclose,
    parse_word,
    su32_quotient_presentation,
    todd_coxeter,
    wk_embedding_subgroup,
    _affine_generators,
    _free_reduce,
    _invert_word,
    _perm_inv,
    _perm_mul,
)


# The relator sugar of the presentations in these tests: powers ``(a b)^3``
# and ``a^-1``, conjugation ``a^b`` and brace groups ``a^{bc}``.  The package
# writes its relators as letter tuples; this parser is fixture sugar and the
# oracle for the ten built-in cube relators.  Exponents multiply word lengths,
# so a short text can name a word of any length; the parser refuses one
# longer than MAX_WORD_LENGTH, and brackets nested deeper than MAX_NESTING,
# before building it.
MAX_WORD_LENGTH = 100_000
MAX_NESTING = 100
_EXPONENT = re.compile(r"-?[0-9]+")
_GENERATOR_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _check_length(n):
    if n > MAX_WORD_LENGTH:
        raise GroupError("input too large: a word of more than %d letters"
                         % MAX_WORD_LENGTH)


class _SugarParser:
    """Parses words over one list of generator names, one text at a time."""

    def __init__(self, generator_names):
        self.gen_index = {}
        for i, name in enumerate(generator_names):
            if not _GENERATOR_NAME.fullmatch(name):
                raise GroupError("generator name %r is not an ASCII identifier" % name)
            if name in self.gen_index:
                raise GroupError("generator %r is named twice" % name)
            self.gen_index[name] = i
        self.name_lengths = sorted({len(n) for n in self.gen_index}, reverse=True)

    def parse(self, text):
        self.text = text
        self.pos = 0
        self.depth = 0
        word = self.parse_sequence()
        self._skip_ws()
        if self.pos != len(text):
            raise GroupError("trailing input in word %r" % text)
        return _free_reduce(word)

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self._skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch):
        if self.peek() != ch:
            raise GroupError("expected %r at %r" % (ch, self.text[self.pos:]))
        self.pos += 1

    def parse_sequence(self, stop=""):
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise GroupError("input too large: brackets nested more than %d deep"
                             % MAX_NESTING)
        word = []
        while True:
            ch = self.peek()
            if not ch or ch in stop:
                self.depth -= 1
                return tuple(word)
            word.extend(self.parse_factor())
            _check_length(len(word))

    def parse_factor(self):
        word = self.parse_atom()
        while self.peek() == "^":
            self.pos += 1
            ch = self.peek()
            if ch == "{":
                self.pos += 1
                conj = self.parse_sequence(stop="}")
                self.expect("}")
            elif ch.isalpha() or ch == "_":
                conj = self.parse_name_word()
            else:
                n = self.parse_int()
                if n < 0:
                    word, n = _invert_word(word), -n
                _check_length(len(word) * n)
                word = _free_reduce(word * n)
                continue
            _check_length(2 * len(conj) + len(word))
            word = _free_reduce(_invert_word(conj) + word + conj)
        return word

    def parse_atom(self):
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            inner = self.parse_sequence(stop=")")
            self.expect(")")
            return inner
        if ch.isalpha() or ch == "_":
            return self.parse_name_word()
        raise GroupError("cannot parse word at %r" % self.text[self.pos:])

    def parse_name_word(self):
        # longest known generator name at this position, so that a brace
        # group like {bc} splits into the two generators b and c
        self._skip_ws()
        for n in self.name_lengths:
            name = self.text[self.pos:self.pos + n]
            if name in self.gen_index:
                self.pos += len(name)
                return (2 * self.gen_index[name],)
        raise GroupError("cannot read a generator at %r" % self.text[self.pos:])

    def parse_int(self):
        """An ASCII integer exponent, at most MAX_WORD_LENGTH in size."""
        self._skip_ws()
        m = _EXPONENT.match(self.text, self.pos)
        if not m:
            raise GroupError("expected an exponent at %r" % self.text[self.pos:])
        self.pos = m.end()
        if len(m[0]) > 12 or abs(int(m[0])) > MAX_WORD_LENGTH:
            raise GroupError("input too large: exponent %s" % m[0][:12])
        return int(m[0])


def parse_sugar(expr, generator_names):
    """Parse word sugar such as ``(a^b d)^3`` or ``a^{bc}`` into letters,
    over generator names that are distinct ASCII identifiers."""
    return _SugarParser(generator_names).parse(expr)


def parse_presentation(text):
    """A presentation from text: a ``gens a b c`` header, then one relator a
    line in the sugar that `parse_sugar` reads.  Only the tests read this
    format; they use it to drive the enumerator and the word parser."""
    lines = [l.strip() for l in text.strip().splitlines() if l.strip()]
    header = lines[0].split() if lines else []
    if not header or header[0] != "gens":
        raise GroupError("expected a 'gens ...' header")
    names = header[1:]
    parser = _SugarParser(names)
    return Presentation(names, [parser.parse(l) for l in lines[1:]])


def presentation_to_text(pres):
    """The text format that `parse_presentation` reads, one relator a line
    with inverse letters written x^-1."""
    out = ["gens " + " ".join(pres.generator_names)]
    for w in pres.relators:
        parts = []
        for letter in w:
            name = pres.generator_names[letter >> 1]
            parts.append(name if letter % 2 == 0 else name + "^-1")
        out.append(" ".join(parts))
    return "\n".join(out) + "\n"


def conj_class(group, g):
    return conjugacy_closure([g], group.generators, group.mul, group.inv)


# --- symmetric groups -------------------------------------------------------

def test_sym_counts():
    for n, transpositions in ((2, 1), (4, 6), (5, 10)):
        g = build_sym(n)
        assert len(g.D) == transpositions
        assert g.order() == [1, 1, 2, 6, 24, 120][n]


def test_sym4_is_3transposition():
    assert is_3transposition(build_sym(4)).ok


def test_single_transposition_is_not_closed():
    g = build_sym(4)
    broken = copy.copy(g)
    broken._d = [g.generators[0]]  # D given outright, not closed under conjugation
    res = is_3transposition(broken)
    assert not res.ok
    assert "closed" in res.reason


def test_order_of_product_basics():
    g = build_sym(4)
    s12, s23, s34 = g.generators
    assert g.order_of_product(s12, s12) == 1
    assert g.order_of_product(s12, s34) == 2
    assert g.order_of_product(s12, s23) == 3
    # (12)(34) * (12) has the order of (34)
    d = g.mul(s12, s34)
    assert g.order_of_product(d, s12) == 2


# --- the permutation kernel -------------------------------------------------

def _perm_mul_reference(p, q):
    """The product p then q, i -> q[p[i]], one generator step a point."""
    return tuple(q[i] for i in p)


@st.composite
def _permutation_pairs(draw):
    n = draw(st.integers(0, 200))
    return draw(st.permutations(range(n))), draw(st.permutations(range(n)))


def test_perm_mul_on_the_lengths_itemgetter_treats_apart():
    # itemgetter() raises and itemgetter(i) returns a scalar, so lengths 0
    # and 1 take their own path
    for p, q in [((), ()), ((0,), (0,)), ((0, 1), (1, 0)), ((1, 0), (1, 0)),
                 ((1, 0), [1, 0])]:
        got = _perm_mul(p, q)
        assert type(got) is tuple
        assert got == _perm_mul_reference(p, q)
    assert _perm_mul((1, 0), (1, 0)) == (0, 1)


@settings(max_examples=200, deadline=None)
@given(_permutation_pairs())
def test_perm_mul_matches_the_generator_oracle(pair):
    p, q = (tuple(x) for x in pair)
    got = _perm_mul(p, q)
    assert type(got) is tuple
    assert got == _perm_mul_reference(p, q)
    identity = tuple(range(len(p)))
    assert _perm_mul(p, _perm_inv(p)) == identity == _perm_mul(_perm_inv(p), p)


# --- 3^2:2 ------------------------------------------------------------------

def test_3sq2_structure():
    g = build_3sq2()
    assert g.order() == 18
    assert len(g.D) == 9
    assert is_3transposition(g).ok


def test_3sq2_all_pairs_have_order_three():
    g = build_3sq2()
    for i, c in enumerate(g.D):
        for d in g.D[i + 1:]:
            assert g.order_of_product(c, d) == 3


def test_conjugation_kernel_is_center():
    for g in (build_sym(4), build_3sq2()):
        d_list = g.D
        kernel = [
            x for x in g.elements()
            if all(g.conjugate(d, x) == d for d in d_list)
        ]
        center = [
            z for z in g.elements()
            if all(g.mul(z, h) == g.mul(h, z) for h in g.generators)
        ]
        assert sorted(map(hash, kernel)) == sorted(map(hash, center))


# --- affine W_k groups ------------------------------------------------------

def test_wk_orders_by_closure():
    # the four generators have zero-sum translation parts; for k = 2 the
    # all-ones diagonal is itself zero-sum, which halves the quotient
    assert build_wk_affine_a(2, 3).order() == 96
    assert build_wk_affine_a(3, 3).order() == 648


def test_wk_generators_conjugate_and_involutive():
    for k in (2, 3):
        g = build_wk_affine_a(k, 3)
        a, b, c, d = g.generators
        cls = set(conj_class(g, a))
        assert {b, c, d} <= cls
        for x in g.generators:
            assert g.mul(x, x) == g.identity
        assert g.order_of_product(a, b) == 3
        assert g.order_of_product(a, c) == 2
        assert is_3transposition(g).ok


def test_wk_involution_class_sizes():
    assert len(build_wk_affine_a(2, 3).D) == 12
    assert len(build_wk_affine_a(3, 3).D) == 18


def _matrix(pair):
    """The (n+1)-square matrix [[P, 0], [t, 1]] of the pair (p, t), where row
    i of the permutation matrix P has its 1 in column p[i]."""
    p, t = pair
    n = len(p)
    rows = [tuple(int(j == p[i]) for j in range(n)) + (0,) for i in range(n)]
    rows.append(tuple(t) + (1,))
    return tuple(rows)


def _pair(m, k):
    """The pair of a block matrix [[P, 0], [t, 1]] over F_k, as one
    representative modulo the diagonal: t shifted so that t[0] = 0."""
    n = len(m) - 1
    assert [row[n] for row in m] == [0] * n + [1]
    p = tuple(row.index(1) for row in m[:n])
    assert sorted(p) == list(range(n)) and all(sum(row) == 1 for row in m[:n])
    t0 = m[n][0]
    return p, tuple((x - t0) % k for x in m[n][:n])


def _encode(pair, k):
    """The permutation of the points (i, j, a), i < j, the sets
    {x : x_j - x_i = a}, that the pair induces, read off its dense matrix: the
    set holds x = a e_j, and its image is the set through x's image y,
    {y : y_p[j] - y_p[i] = b}, named with its smaller coordinate first."""
    m = _matrix(pair)
    n = len(m) - 1
    points = [(i, j, a) for i in range(n) for j in range(i + 1, n)
              for a in range(k)]
    index = {pt: x for x, pt in enumerate(points)}
    col = [row.index(1) for row in m[:n]]
    reps = [tuple(a * (c == j) for c in range(n)) + (1,) for _, j, a in points]
    images = []
    for (i, j, _), y in zip(points, _mat_mul_mod(reps, m, k)):
        lo, hi = sorted((col[i], col[j]))
        images.append((lo, hi, (y[hi] - y[lo]) % k))
    return tuple(index[pt] for pt in images)


def _printed_generators(k):
    """The raw 5-square generator matrices of W_k(affA3) by name, before
    reduction modulo the diagonal."""
    swaps, d = _affine_generators(k, 4, 4)
    return dict(zip(["a", "b", "c", "d"], map(_matrix, swaps + [d])))


def test_printed_generators_canonicalize_to_generators():
    for k in (2, 3):
        g = build_wk_affine_a(k, 3)
        printed = _printed_generators(k)
        assert len(printed) == len(g.generators)
        # a, b, c, d are the generators in order
        for raw, gen in zip(printed.values(), g.generators):
            assert _encode(_pair(raw, k), k) == gen


def test_printed_d_matrix_shape():
    e1, e2, e3, e4, e5 = (tuple(int(i == j) for j in range(5)) for i in range(5))
    for k in (2, 3):
        assert _printed_generators(k) == {
            "a": (e2, e1, e3, e4, e5),
            "b": (e1, e3, e2, e4, e5),
            "c": (e1, e2, e4, e3, e5),
            "d": (e4, e2, e3, e1, (1, 0, 0, k - 1, 1)),  # translation e1 - e4
        }


def _mat_mul_mod(a, b, k):
    """Dense matrix product over F_k: the oracle for the affine product."""
    bt = list(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) % k for col in bt)
        for row in a
    )


def _dense_mul(k):
    return lambda a, b: _pair(_mat_mul_mod(_matrix(a), _matrix(b), k), k)


@functools.lru_cache(maxsize=None)
def _dense_group(k, m, n):
    """The group that `_affine_generators(k, m, n)` generates, closed as
    pairs under the dense product, and the encoding of each pair.  Cached
    across tests, which only read the list and the dict."""
    swaps, d = _affine_generators(k, m, n)
    gens = [_pair(_matrix(g), k) for g in swaps + [d]]
    pairs = mulclose(gens, _dense_mul(k), (tuple(range(n)), (0,) * n))
    return pairs, {x: _encode(x, k) for x in pairs}


@pytest.mark.parametrize("k, m, n", [(2, 4, 4), (3, 4, 4), (5, 4, 4),
                                     (2, 4, 5), (3, 4, 5)])
def test_encoding_is_injective_and_keeps_the_identity(k, m, n):
    # W_k(affA3) and the block subgroups inside W_k(affA4)
    pairs, code = _dense_group(k, m, n)
    assert len(set(code.values())) == len(pairs)
    identity = (tuple(range(n)), (0,) * n)
    assert code[identity] == tuple(range(n * (n - 1) * k // 2))
    # the diagonal translation acts trivially
    swaps, d = _affine_generators(k, m, n)
    for p, t in [identity] + swaps + [d]:
        shifted = (p, tuple((x + 1) % k for x in t))
        assert _encode(shifted, k) == _encode((p, t), k)


def _assert_all_pairs_dense(group, k, m, n):
    # row i of ab is row i of a times b, so the dense oracle runs once per
    # distinct row of the elements and b, not once per pair
    pairs, code = _dense_group(k, m, n)
    mats = {x: _matrix(x) for x in pairs}
    for b in pairs:
        row_times_b = {}
        for a in pairs:
            rows = []
            for row in mats[a]:
                if row not in row_times_b:
                    row_times_b[row] = _mat_mul_mod((row,), mats[b], k)[0]
                rows.append(row_times_b[row])
            assert group.mul(code[a], code[b]) == code[_pair(tuple(rows), k)]


def test_affine_product_matches_dense_oracle_on_all_pairs():
    _assert_all_pairs_dense(build_wk_affine_a(2, 3), 2, 4, 4)
    for k in (2, 3):
        _assert_all_pairs_dense(wk_embedding_subgroup(k, 5), k, 4, 5)


@pytest.mark.parametrize("k", [3, 5])
def test_affine_product_matches_dense_oracle_on_seeded_pairs(k):
    g = build_wk_affine_a(k, 3)
    pairs, code = _dense_group(k, 4, 4)
    rng = random.Random(k)
    for _ in range(2000):
        a, b = rng.choice(pairs), rng.choice(pairs)
        assert g.mul(code[a], code[b]) == code[_dense_mul(k)(a, b)]


def _assert_closure_and_inverse_dense(g, k, m, n):
    pairs, code = _dense_group(k, m, n)
    # the same discovery order: the encoding maps generators to generators
    assert g.elements() == [code[x] for x in pairs]
    assert len(pairs) == {(2, 4): 96, (3, 4): 648, (5, 4): 3000,
                          (2, 5): 192, (3, 5): 648}[k, n]
    for x in g.elements():
        assert g.mul(g.inv(x), x) == g.identity == g.mul(x, g.inv(x))


@pytest.mark.parametrize("k", [2, 3, 5])
def test_affine_inverse_and_closure_match_dense_oracle(k):
    _assert_closure_and_inverse_dense(build_wk_affine_a(k, 3), k, 4, 4)


@pytest.mark.parametrize("k", [2, 3])
def test_block_subgroup_inverse_and_closure_match_dense_oracle(k):
    _assert_closure_and_inverse_dense(wk_embedding_subgroup(k, 5), k, 4, 5)


# --- word and presentation parsing ------------------------------------------
# The test_parse_word_* tests read the sugar through parse_sugar, the full
# parser above; groups.parse_word reads only space-separated generator names.

def test_parse_word_sugar():
    names = ["a", "b", "c", "d"]
    w = parse_sugar("(a^b d)^3", names)
    # b^-1 a b d repeated three times
    assert len(w) == 12
    assert w[:4] == (3, 0, 2, 6)
    # (bc)^-1 a (bc) = c^-1 b^-1 a b c
    assert parse_sugar("a^{bc}", names) == (5, 3, 0, 2, 4)


def test_parse_word_powers_and_inverse():
    names = ["a", "b"]
    assert parse_sugar("(a b)^2", names) == (0, 2, 0, 2)
    assert parse_sugar("(a b)^-1", names) == (3, 1)
    assert parse_sugar("a a^-1", names) == ()


def test_parse_word_takes_the_longest_name_at_each_position():
    names = ["a", "ab", "abc"]
    assert parse_sugar("abcab a abca", names) == (4, 2, 0, 4, 0)
    assert parse_sugar("ab^-1 abc^2", names) == (3, 4, 4)
    assert parse_sugar("(a ab)^{abc}", names) == (5, 0, 2, 4)
    with pytest.raises(GroupError):
        parse_sugar("abd", names)


@pytest.mark.parametrize("names, message", [
    (["", "a"], "identifier"),
    (["a", "a"], "named twice"),
    (["b c", "a"], "identifier"),
    (["\u0663"], "identifier"),
])
def test_parse_word_refuses_bad_generator_names(names, message):
    # an empty name would match everywhere without consuming text
    with pytest.raises(GroupError, match=message):
        parse_sugar("b", names)


def test_thin_parse_word_reads_space_separated_names():
    names = hall_quotient_presentation().generator_names
    assert parse_word("a b c", names) == (0, 2, 4)
    assert parse_word(" d\ta  a ", names) == (6, 0, 0)
    assert parse_word("", names) == ()


@pytest.mark.parametrize("expr, names, message", [
    ("a e", ["a", "b", "c", "d"], "'e' names no generator"),
    ("a^b", ["a", "b"], "'a\\^b' names no generator"),
    ("a", ["a", "a"], "named twice"),
])
def test_thin_parse_word_refuses_with_one_group_error(expr, names, message):
    with pytest.raises(GroupError, match=message):
        parse_word(expr, names)


# The ten extra cube relators of su32 and Hall's group as sugar text, read by
# parse_sugar as the oracle for the letter words the package builds.
_SU32_SUGAR = ["(a^b d)^3", "(a^c d)^3", "(a^{bc} d)^3"]
_HALL_SUGAR = ["(b^c d)^3", "(a^b c)^3", "(a^b d)^3", "(a^c d)^3",
               "(a^{bd} c)^3", "(a^{cd} b)^3", "(a^{dc} b)^3"]


@pytest.mark.parametrize("build, edges, sugar", [
    (su32_quotient_presentation,
     [("a", "b"), ("a", "c"), ("a", "d"), ("b", "d"), ("c", "d")], _SU32_SUGAR),
    (hall_quotient_presentation,
     [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "d")],
     _HALL_SUGAR),
])
def test_built_in_cube_relators_match_the_sugar_parser(build, edges, sugar):
    pres = build()
    names = ["a", "b", "c", "d"]
    parsed = [parse_sugar(text, names) for text in sugar]
    assert pres.generator_names == names
    # the whole list, tuple for tuple: the Coxeter relators, then the sugar
    assert pres.relators == coxeter_presentation(names, edges).relators + parsed
    assert all(type(w) is tuple for w in pres.relators)


def test_parse_presentation_with_2000_generators():
    names = ["g%d" % i for i in range(2000)]
    text = "gens %s\n%s\n%s\n" % (" ".join(names), " ".join(names), "".join(names))
    pres = parse_presentation(text)
    assert pres.generator_names == names
    assert pres.relators == [tuple(range(0, 4000, 2))] * 2


def test_presentation_text_round_trip():
    pres = parse_presentation("gens a b\na^2\nb^2\n(a b)^3\n")
    text = presentation_to_text(pres)
    again = parse_presentation(text)
    assert again.generator_names == ["a", "b"]
    assert again.relators == pres.relators


def test_presentation_text_round_trip_with_inverse_letters():
    # the extra relators expand through conjugation and carry inverse letters
    pres = su32_quotient_presentation()
    again = parse_presentation(presentation_to_text(pres))
    assert again.generator_names == pres.generator_names
    assert again.relators == pres.relators


@pytest.mark.parametrize("text, message", [
    ("gens a\na^99999999999", "too large"),
    ("gens a b\n((a b)^50000)^2", "too large"),
    ("gens a\na^99999^99999", "too large"),
    ("gens a\n" + "(" * 5000 + "a" + ")" * 5000, "too large"),
    ("gens a\n" + "a^{" * 5000 + "a" + "}" * 5000, "too large"),
    ("gens a a", "named twice"),
    ("gens a\na^\u0663", "exponent"),
    ("gens a\na^-", "exponent"),
    ("gens a b\n(a b", "expected"),
    ("gens (", "identifier"),
    ("gensa b", "header"),
])
def test_parse_presentation_refuses(text, message):
    with pytest.raises(GroupError, match=message):
        parse_presentation(text)


def test_parse_presentation_limits_are_inclusive():
    deep = "(" * (MAX_NESTING - 1) + "a" + ")" * (MAX_NESTING - 1)
    assert parse_presentation("gens a\n" + deep).relators == [(0,)]
    long = parse_presentation("gens a b\n(a b)^%d" % (MAX_WORD_LENGTH // 2))
    assert len(long.relators[0]) == MAX_WORD_LENGTH


_WORD_TEXT = st.text(alphabet="ab_()^{}-0123456789 \u0663", max_size=30)


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=40)
       | st.builds("gens {} {}\n{}".format, st.text(max_size=3), st.text(max_size=3),
                   _WORD_TEXT)
       | st.builds(lambda k, body: "gens a b\n" + "(" * k + body + ")" * k,
                   st.integers(0, 300), _WORD_TEXT))
def test_parse_presentation_on_any_text(text):
    try:
        pres = parse_presentation(text)
    except ValueError:
        return
    assert isinstance(pres, Presentation)
    for w in pres.relators:
        assert len(w) <= MAX_WORD_LENGTH
        assert all(0 <= letter < 2 * pres.ngens for letter in w)
    again = parse_presentation(presentation_to_text(pres))
    assert again.generator_names == pres.generator_names
    assert again.relators == [w for w in pres.relators if w]


def test_coxeter_presentation_shape():
    pres = coxeter_presentation(["a", "b", "c"], [("a", "b"), ("b", "c")])
    assert len(pres.relators) == 3 + 3  # squares + one relator per pair


# --- Todd-Coxeter ------------------------------------------------------------

def _hlt_reference(pres, subgroup=(), max_cosets=2_000_000, variant=0):
    """The enumerator without closed-relator marks: every relator is scanned
    from every live coset.  Returns (complete, total_defined, table)."""
    ngens = pres.ngens
    relators = [_free_reduce(w) for w in pres.relator_words()]
    squares = {w[0] >> 1 for w in relators if len(w) == 2 and w[0] == w[1]}
    involution_mode = all(i in squares for i in range(ngens))
    if involution_mode:
        ncols = ngens
        col_of = lambda letter: letter >> 1
        icol = list(range(ncols))
        relators = [w for w in relators if not (len(w) == 2 and w[0] == w[1])]
    else:
        ncols = 2 * ngens
        col_of = lambda letter: letter
        icol = [c ^ 1 for c in range(ncols)]
    rel_cols = [[col_of(l) for l in w] for w in relators if w]
    sub_cols = [[col_of(l) for l in w] for w in subgroup]
    if variant:
        rel_cols = [w[1:] + w[:1] if len(w) > 1 else w for w in rel_cols]
        rel_cols = list(reversed(rel_cols))
    table = [[-1] * ncols]
    parent = [0]
    ndead = 0
    total_defined = 1

    def rep(c):
        r = c
        while parent[r] != r:
            r = parent[r]
        while parent[c] != r:
            parent[c], c = r, parent[c]
        return r

    def merge(a, b, queue):
        nonlocal ndead
        a, b = rep(a), rep(b)
        if a == b:
            return
        if a > b:
            a, b = b, a
        parent[b] = a
        ndead += 1
        queue.append(b)

    def coincidence(a, b):
        queue = []
        merge(a, b, queue)
        head = 0
        while head < len(queue):
            gamma = queue[head]
            head += 1
            row = table[gamma]
            for x in range(ncols):
                delta = row[x]
                if delta < 0:
                    continue
                table[delta][icol[x]] = -1
                mu, nu = rep(gamma), rep(delta)
                t = table[mu][x]
                if t >= 0:
                    merge(nu, t, queue)
                elif table[nu][icol[x]] >= 0:
                    merge(mu, table[nu][icol[x]], queue)
                else:
                    table[mu][x] = nu
                    table[nu][icol[x]] = mu
            table[gamma] = None

    class Overflow(Exception):
        pass

    def define(c, x):
        nonlocal total_defined
        n = len(table)
        if n - ndead >= max_cosets:
            raise Overflow
        table.append([-1] * ncols)
        parent.append(n)
        table[c][x] = n
        table[n][icol[x]] = c
        total_defined += 1
        return n

    def scan_and_fill(alpha, word):
        f, i, b, j = alpha, 0, alpha, len(word) - 1
        while True:
            while i <= j and table[f][word[i]] >= 0:
                f = table[f][word[i]]
                i += 1
            if i > j:
                if f != b:
                    coincidence(f, b)
                return
            while j >= i and table[b][icol[word[j]]] >= 0:
                b = table[b][icol[word[j]]]
                j -= 1
            if j < i:
                coincidence(f, b)
                return
            if i == j:
                table[f][word[i]] = b
                table[b][icol[word[i]]] = f
                return
            f = define(f, word[i])
            i += 1

    try:
        for w in sub_cols:
            scan_and_fill(0, w)
        alpha = 0
        while alpha < len(table):
            if parent[alpha] == alpha and table[alpha] is not None:
                for w in rel_cols:
                    scan_and_fill(alpha, w)
                    if parent[alpha] != alpha:
                        break
                if parent[alpha] == alpha:
                    for x in range(ncols):
                        if table[alpha][x] < 0:
                            define(alpha, x)
            alpha += 1
    except Overflow:
        return False, total_defined, []
    live = [c for c in range(len(table)) if parent[c] == c and table[c] is not None]
    remap = {c: k for k, c in enumerate(live)}
    return True, total_defined, [[remap[rep(e)] for e in table[c]] for c in live]


def _agrees_with_reference(pres, subgroup=(), max_cosets=2_000_000, variant=0):
    tab = todd_coxeter(pres, subgroup=subgroup, max_cosets=max_cosets,
                       variant=variant)
    got = (tab.complete, tab.total_defined, tab.table)
    assert got == _hlt_reference(pres, subgroup, max_cosets, variant)
    return tab


_SYM5 = coxeter_presentation(["a", "b", "c", "d"],
                             [("a", "b"), ("b", "c"), ("c", "d")])
# The Coxeter group B3, of order 48, with inverse letters in its relators; an
# inverse letter reads the same column as its generator.
_B3_INVERSE_LETTERS = parse_presentation(
    "gens a b c\na^2\nb^-2\nc^2\n(a b^-1)^4\n(b c^-1)^3\n(a^-1 c)^2")
# Presentations whose generators are not all involutions, which the
# enumerator refuses: a of order 3 in Sym(4), b of order 3 in A5.
_NON_INVOLUTION = parse_presentation("gens a b\na^3\nb^2\n(a b)^4")
_TRIANGLE_235 = parse_presentation("gens a b\na^2\nb^3\n(a b)^5")


@pytest.mark.parametrize("pres, name", [
    (_NON_INVOLUTION, "a"),
    (_TRIANGLE_235, "b"),
    (parse_presentation("gens a\na"), "a"),
    (parse_presentation("gens a b\na^2\nb a b^-1 a"), "b"),
    (Presentation(["a", "b"], [()]), "a"),
    # a a^-1 reduces to the empty word, which is no square
    (Presentation(["a"], [(0, 1)]), "a"),
])
def test_enumerator_refuses_a_generator_without_a_square_relator(pres, name):
    message = "generator %r has no square relator" % name
    with pytest.raises(GroupError, match=message):
        todd_coxeter(pres)
    with pytest.raises(GroupError, match=message):
        todd_coxeter(pres, [(0,)], max_cosets=1, variant=1)


def test_enumerator_refuses_before_defining_a_coset(monkeypatch):
    # the budget would run out at the first definition
    monkeypatch.setenv("MATSUO_MAX_COSETS", "1")
    with pytest.raises(GroupError, match="generator 'a' has no square relator"):
        todd_coxeter(_NON_INVOLUTION)
    assert not todd_coxeter(_SYM5).complete


_SYM4 = coxeter_presentation(["a", "b", "c"], [("a", "b"), ("b", "c")])


@pytest.mark.parametrize("pres, relator, subgroup, letter", [
    (_SYM4, (), [(7,)], 7),
    (_SYM4, (), [(-1,)], -1),
    (_SYM4, (0, 6), [], 6),
    (_SYM4, (-2, 0), [(0,)], -2),
    (Presentation(["a"], [(0, 0)]), (5,), [], 5),
], ids=["subgroup-past-the-end", "subgroup-negative", "relator-past-the-end",
        "relator-negative", "one-generator"])
def test_enumerator_refuses_a_letter_that_names_no_generator(
        monkeypatch, pres, relator, subgroup, letter):
    # the budget would run out at the first definition, so a refusal made
    # after one would show as an incomplete table instead
    monkeypatch.setenv("MATSUO_MAX_COSETS", "1")
    pres = Presentation(pres.generator_names, pres.relators + [relator])
    message = "letter %d names no generator; letters run over range(%d)" % (
        letter, 2 * pres.ngens)
    for variant in (0, 1):
        with pytest.raises(GroupError, match=re.escape(message)):
            todd_coxeter(pres, subgroup, variant=variant)


_COXETER_GRAPHS = [
    (["a"], []),
    (["a", "b"], []),
    (["a", "b", "c"], [("a", "b"), ("b", "c")]),
    (["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d")]),
]


def test_every_presentation_built_passes_the_square_check():
    built = [coxeter_presentation(names, edges) for names, edges in _COXETER_GRAPHS]
    built += [su32_quotient_presentation(), hall_quotient_presentation()]
    for pres in built:
        squares = {w[0] >> 1 for w in pres.relators if len(w) == 2 and w[0] == w[1]}
        assert squares == set(range(pres.ngens))
        # one coset of budget: the enumerator starts, then runs out
        tab = todd_coxeter(pres, max_cosets=1)
        assert not tab.complete and tab.ncols == pres.ngens


@pytest.mark.parametrize("variant", [0, 1])
def test_marked_enumeration_matches_reference_on_rank4_groups(variant):
    su32 = _agrees_with_reference(su32_quotient_presentation(), variant=variant)
    assert su32.total_defined == (14552, 14363)[variant]
    hall = hall_quotient_presentation()
    abc = [parse_word("a b c", hall.generator_names)]
    over_abc = _agrees_with_reference(hall, abc, variant=variant)
    assert over_abc.n_cosets == 19683
    assert over_abc.total_defined == (53533, 62475)[variant]


@pytest.mark.parametrize("variant", [0, 1])
def test_marked_enumeration_matches_reference_on_small_groups(variant):
    tab = _agrees_with_reference(_B3_INVERSE_LETTERS, variant=variant)
    assert tab.ncols == 3 and tab.n_cosets == 48
    sub = [parse_sugar("a^-1", ["a", "b", "c"])]
    assert _agrees_with_reference(_B3_INVERSE_LETTERS, sub,
                                  variant=variant).n_cosets == 24
    # 80 relators: more than the 64 that carry marks
    many = Presentation(_SYM5.generator_names, _SYM5.relators * 8)
    assert _agrees_with_reference(many, variant=variant).n_cosets == 120
    # In each of these enumerations, in both variants, some scans end in a
    # coincidence that kills a coset the scan walked through at a cut
    # position of its relator; their marks come from a walk over the merged
    # table.
    for words, index in [([], 120), (["b"], 60), (["c"], 60)]:
        sub = [parse_word(w, _SYM5.generator_names) for w in words]
        assert _agrees_with_reference(_SYM5, sub, variant=variant).n_cosets == index


@pytest.mark.parametrize("cap", [200, 2000])
def test_marked_enumeration_runs_out_where_reference_does(cap):
    for pres in (su32_quotient_presentation(), hall_quotient_presentation()):
        for variant in (0, 1):
            tab = _agrees_with_reference(pres, max_cosets=cap, variant=variant)
            assert not tab.complete


@st.composite
def _small_presentations(draw):
    """The square of every generator, written with its letter or its inverse
    letter, Coxeter-like relators on up to three generators, plus short free
    words and subgroup words that may use inverse letters."""
    n = draw(st.integers(1, 3))
    letters = st.integers(0, 2 * n - 1)
    relators = [(2 * i + draw(st.integers(0, 1)),) * 2 for i in range(n)]
    relators += [(2 * i,) * draw(st.sampled_from([3, 4])) for i in range(n)
                 if draw(st.booleans())]
    relators += [(2 * i, 2 * j) * draw(st.integers(2, 5))
                 for i in range(n) for j in range(i + 1, n) if draw(st.booleans())]
    relators += draw(st.lists(st.lists(letters, min_size=1, max_size=8).map(tuple),
                              max_size=2))
    subgroup = draw(st.lists(st.lists(letters, min_size=1, max_size=4).map(tuple),
                             max_size=2))
    pres = Presentation(["g%d" % i for i in range(n)], relators)
    return pres, subgroup, draw(st.sampled_from([30, 300])), draw(st.integers(0, 1))


@seed(7)
@settings(max_examples=150, deadline=None)
@given(_small_presentations())
def test_marked_enumeration_matches_reference_on_random_presentations(case):
    pres, subgroup, cap, variant = case
    tab = _agrees_with_reference(pres, subgroup, cap, variant)
    if tab.complete:
        assert tab.verify()


_SYM4 = coxeter_presentation(["a", "b", "c"], [("a", "b"), ("b", "c")])


def _with_relator(pres, expr):
    return Presentation(pres.generator_names, pres.relators
                        + [parse_sugar(expr, pres.generator_names)])


# A scan defines a run of cosets along a gap and stops where a walk could
# move again.  A doubled letter puts the next letter in the row just defined
# (Sym(4) with the true relators a b b a and a b c c b a); over <a> in Sym(4)
# and <b> in Sym(5) some gap has its two ends at one coset and begins with
# the letter its backward walk stopped on, so the first definition closes
# that end.  Each case, in one variant or both, enumerates differently if the
# run ignores the stop.
_DEFINE_RUN_CASES = [
    (_with_relator(_SYM4, "a b b a"), [], 24),
    (_with_relator(_SYM4, "a b c c b a"), ["b"], 12),
    (_SYM4, ["a"], 12),
    (_SYM5, ["b"], 60),
]


@pytest.mark.parametrize("variant", [0, 1])
@pytest.mark.parametrize("case", range(len(_DEFINE_RUN_CASES)))
def test_define_run_stops_where_a_walk_would_move(case, variant):
    pres, words, index = _DEFINE_RUN_CASES[case]
    sub = [parse_word(w, pres.generator_names) for w in words]
    tab = _agrees_with_reference(pres, sub, variant=variant)
    assert tab.n_cosets == index
    assert tab.verify()


def test_define_run_runs_out_where_reference_does():
    # every cap up to the full count, so some budgets run out inside a run
    for pres, words, _ in _DEFINE_RUN_CASES[2:]:
        sub = [parse_word(w, pres.generator_names) for w in words]
        for variant in (0, 1):
            total = todd_coxeter(pres, sub, variant=variant).total_defined
            done = [_agrees_with_reference(pres, sub, cap, variant).complete
                    for cap in range(1, total + 1)]
            assert not done[0] and done[-1]


def _verify_reference(tab):
    """The letter-by-letter check: each generator column is a permutation,
    every relator fixes every coset, subgroup words fix coset 0."""
    idx = list(range(tab.n_cosets))
    columns = [[row[col] for row in tab.table] for col in range(tab.ncols)]
    if any(sorted(c) != idx for c in columns):
        return False
    for w in tab.presentation.relator_words():
        acc = idx
        for letter in w:
            acc = [columns[letter >> 1][x] for x in acc]
        if acc != idx:
            return False
    for w in tab.subgroup_words:
        acc = 0
        for letter in w:
            acc = tab.table[acc][letter >> 1]
        if acc != 0:
            return False
    return True


def _tampered(tab, table=None, subgroup_words=None):
    return CosetTable(tab.presentation,
                      tab.subgroup_words if subgroup_words is None else subgroup_words,
                      [list(row) for row in tab.table] if table is None else table,
                      tab.ncols, tab.complete, tab.total_defined)


def test_verify_matches_letter_by_letter_reference(su32_table):
    hall = hall_quotient_presentation()
    over_abc = todd_coxeter(hall, subgroup=[parse_word("a b c", hall.generator_names)])
    tables = [su32_table, over_abc, todd_coxeter(_SYM5),
              todd_coxeter(_B3_INVERSE_LETTERS)]
    for tab in tables:
        assert tab.complete
        assert tab.verify() is _verify_reference(tab) is True
        one = _tampered(tab)
        r = tab.n_cosets // 2
        one.table[r][1] = (one.table[r][1] + 1) % tab.n_cosets
        swapped = _tampered(tab)
        # two images in one column exchanged: still a permutation
        swapped.table[1][0], swapped.table[2][0] = swapped.table[2][0], swapped.table[1][0]
        wrong_sub = _tampered(tab, subgroup_words=[(2,)])
        # column 0 the 3-cycle (0 1 2), fixing every other coset: a
        # permutation, but not an involution
        three_cycle = _tampered(tab)
        for i, row in enumerate(three_cycle.table):
            row[0] = (i + 1) % 3 if i < 3 else i
        past_end = _tampered(tab)
        past_end.table[r][1] = tab.n_cosets
        for bad in (one, swapped, wrong_sub, three_cycle, past_end):
            assert bad.verify() is _verify_reference(bad) is False


def test_verify_gather_edge_cases_match_reference():
    trivial = todd_coxeter(parse_presentation("gens a\na^2\na"))
    assert trivial.table == [[0]]
    # one coset, and a map composed with itself: a^3 after the square
    cube = todd_coxeter(parse_presentation("gens a\na^2\na^3"))
    assert cube.table == [[0]]
    # b a c a^-1 c b^-1 is not a proper power: its shortest period is itself
    sym4 = todd_coxeter(_with_relator(_SYM4, "b a c a^-1 c b^-1"))
    assert sym4.n_cosets == 24
    # no relator but the squares and the empty word: the subgroup words alone
    # close the table
    free = Presentation(["a", "b"], [(0, 0), (2, 2), ()])
    free_words = [parse_sugar(w, ["a", "b"]) for w in ("b", "a b a^-1")]
    over_free = todd_coxeter(free, free_words)
    assert over_free.n_cosets == 2
    over_inverse = todd_coxeter(_B3_INVERSE_LETTERS,
                                [parse_sugar("a^-1 b a b^-1", ["a", "b", "c"])])
    for tab in (trivial, cube, sym4, over_free, over_inverse):
        assert tab.complete
        assert tab.verify() is _verify_reference(tab) is True
        hole = _tampered(tab)
        hole.table[0][-1] = -1
        wrong_sub = _tampered(tab, subgroup_words=[(0,)])
        for bad in (hole, wrong_sub):
            assert bad.verify() is _verify_reference(bad)
        assert hole.verify() is False
    assert _tampered(trivial, subgroup_words=[(0,)]).verify() is True
    # an involutive column passes the gather, but the odd power a^3 is a
    odd_power = CosetTable(cube.presentation, [], [[1], [0]], 1, True, 2)
    assert odd_power.verify() is _verify_reference(odd_power) is False


def test_single_involution():
    tab = todd_coxeter(parse_presentation("gens a\na^2"))
    assert tab.complete and tab.n_cosets == 2


def test_order_three_generator_is_refused():
    with pytest.raises(GroupError) as err:
        todd_coxeter(parse_presentation("gens a\na^3"))
    assert str(err.value) == ("generator 'a' has no square relator; the coset "
                              "enumerator takes involutions only")


def test_inverse_letters_read_the_generator_columns():
    # a^-1 b^-1 is a b in the table: Sym(3) over <a b^-1> has index 2
    pres = parse_presentation("gens a b\na^-2\nb^2\n(a^-1 b^-1)^3")
    tab = todd_coxeter(pres)
    assert tab.complete and tab.ncols == 2 and tab.n_cosets == 6
    assert tab.table == todd_coxeter(coxeter_presentation(["a", "b"], [("a", "b")])).table
    over = todd_coxeter(pres, [parse_sugar("a b^-1", ["a", "b"])])
    assert over.complete and over.n_cosets == 2


def test_sym4_coxeter_matches_permutation_count():
    pres = coxeter_presentation(["a", "b", "c"], [("a", "b"), ("b", "c")])
    tab = todd_coxeter(pres)
    assert tab.complete
    assert tab.n_cosets == build_sym(4).order() == 24
    assert tab.verify()


def test_enumeration_over_subgroup():
    pres = coxeter_presentation(["a", "b", "c"], [("a", "b"), ("b", "c")])
    tab = todd_coxeter(pres, subgroup=[parse_word("a", ["a", "b", "c"])])
    assert tab.complete and tab.n_cosets == 12
    assert tab.verify()
    with pytest.raises(GroupError):
        tab.group()  # regular realization needs the trivial subgroup


def test_budget_exhaustion_reports_incomplete():
    tab = todd_coxeter(hall_quotient_presentation(), max_cosets=500)
    assert not tab.complete
    assert tab.status == "incomplete"


def test_budget_environment_variable(monkeypatch):
    monkeypatch.setenv("MATSUO_MAX_COSETS", "500")
    tab = todd_coxeter(hall_quotient_presentation())
    assert not tab.complete
    monkeypatch.setenv("MATSUO_MAX_COSETS", "100000")
    small = todd_coxeter(su32_quotient_presentation())
    assert small.complete and small.n_cosets == 6912


def test_su32_quotient_coset_count(su32_table):
    assert su32_table.n_cosets == 6912
    assert su32_table.verify()


def test_su32_quotient_variant_order_agrees(su32_table):
    other = todd_coxeter(su32_quotient_presentation(), variant=1)
    assert other.complete and other.n_cosets == su32_table.n_cosets


def test_hall_quotient_coset_count(hall_table):
    assert hall_table.n_cosets == 118098 == 2 * 3 ** 10
    assert hall_table.total_defined == 321682
    assert hall_table.verify()


def test_hall_quotient_variant_order_agrees(hall_table):
    other = todd_coxeter(hall_quotient_presentation(), variant=1)
    assert other.complete and other.n_cosets == hall_table.n_cosets
    assert other.total_defined == 371756


def test_coset_table_of_an_involution():
    tab = todd_coxeter(parse_presentation("gens a\na^2"))
    assert tab.complete and tab.ncols == 1
    assert tab.table == [[1], [0]]


def test_regular_realization_group_laws(su32_group):
    g = su32_group
    a, b, c, d = g.generators
    assert g.mul(a, a) == g.identity
    assert g.inv(g.mul(a, b)) == g.mul(b, a)
    assert g.order_of_product(a, b) == 3
    assert g.order_of_product(b, c) == 2  # the removed edge commutes
    assert g.order() == 6912


def _tuple_word_realization(tab):
    """Oracle: (mul, inv) of the regular realization through stored
    representative words, one tuple of columns per coset, from the same
    breadth-first walk as ``CosetTable.group``."""
    words = [None] * tab.n_cosets
    words[0] = ()
    queue = [0]
    for c in queue:
        for col in range(tab.ncols):
            d = tab.table[c][col]
            if words[d] is None:
                words[d] = words[c] + (col,)
                queue.append(d)

    def mul(x, y):
        for col in words[y]:
            x = tab.table[x][col]
        return x

    def inv(x):
        c = 0
        for col in reversed(words[x]):
            c = tab.table[c][col]
        return c
    return mul, inv


def _assert_matches_tuple_words(tab, group, pairs, inverted):
    mul, inv = _tuple_word_realization(tab)
    rng = random.Random(24)
    n = tab.n_cosets
    for _ in range(pairs):
        x, y = rng.randrange(n), rng.randrange(n)
        assert group.mul(x, y) == mul(x, y)
    for x in inverted:
        assert group.inv(x) == inv(x)


def test_regular_realization_matches_the_tuple_words(su32_table, su32_group):
    _assert_matches_tuple_words(su32_table, su32_group, 2000, range(su32_table.n_cosets))
    # a table built from relators with inverse letters
    tab = todd_coxeter(_B3_INVERSE_LETTERS)
    _assert_matches_tuple_words(tab, tab.group(), 2000, range(tab.n_cosets))


def test_regular_realization_matches_the_tuple_words_on_hall(hall_table, hall_group):
    sample = random.Random(25).sample(range(hall_table.n_cosets), 2000)
    _assert_matches_tuple_words(hall_table, hall_group, 2000, sample)


def test_su32_class_size(su32_group):
    assert len(conj_class(su32_group, su32_group.generators[0])) == 36


def test_mulclose_cap(monkeypatch):
    g = build_sym(5)
    monkeypatch.setattr(groups, "ELEMENT_CAP", 10)
    with pytest.raises(ClosureBudgetError, match="^element closure exceeded cap 10$"):
        mulclose(g.generators, g.mul, g.identity)
    with pytest.raises(ClosureBudgetError, match="cap 10"):
        g.order()
    # the other two closures share the one check
    g6 = build_sym(6)  # 15 transpositions
    with pytest.raises(ClosureBudgetError, match="^conjugacy closure exceeded cap 10$"):
        conjugacy_closure(g6._d_seeds, g6.generators, g6.mul, g6.inv)
    with pytest.raises(ClosureBudgetError, match="cap 10"):
        generator_homomorphism(g, build_sym(5))


# --- the closure kernel against the three loops it replaced -----------------

def _mulclose_reference(gens, mul, identity):
    seen = {identity: None}
    queue = [identity]
    head = 0
    while head < len(queue):
        x = queue[head]
        head += 1
        for g in gens:
            y = mul(x, g)
            if y not in seen:
                if len(seen) >= groups.ELEMENT_CAP:
                    raise GroupError("element closure exceeded cap")
                seen[y] = None
                queue.append(y)
    return queue


def _conjugacy_closure_reference(seeds, gens, mul, inv):
    seen = dict.fromkeys(seeds)
    queue = list(seen)
    head = 0
    inv_gens = [inv(g) for g in gens]
    while head < len(queue):
        x = queue[head]
        head += 1
        for g, gi in zip(gens, inv_gens):
            y = mul(mul(gi, x), g)
            if y not in seen:
                if len(seen) >= groups.ELEMENT_CAP:
                    raise GroupError("conjugacy closure exceeded cap")
                seen[y] = None
                queue.append(y)
    return queue


def _generator_homomorphism_reference(g1, g2):
    """The pairing extended element by element, refused at the first clash."""
    if len(g1.generators) != len(g2.generators):
        return None
    hom = {g1.identity: g2.identity}
    queue = [g1.identity]
    head = 0
    while head < len(queue):
        x = queue[head]
        head += 1
        for u, v in zip(g1.generators, g2.generators):
            y = g1.mul(x, u)
            img = g2.mul(hom[x], v)
            if y in hom:
                if hom[y] != img:
                    return None
            else:
                if len(hom) >= groups.ELEMENT_CAP:
                    raise GroupError("homomorphism search exceeded cap")
                hom[y] = img
                queue.append(y)
    return hom


def _closure_groups():
    return [build_sym(5), build_3sq2(), build_wk_affine_a(2, 3),
            build_wk_affine_a(3, 3), wk_embedding_subgroup(2, 5),
            wk_embedding_subgroup(3, 5)]


@pytest.mark.parametrize("g", _closure_groups(), ids=repr)
def test_closures_match_the_reference_loops_in_order(g):
    # the discovery order of D fixes the point labels, so lists, not sets
    els = mulclose(g.generators, g.mul, g.identity)
    assert els == _mulclose_reference(g.generators, g.mul, g.identity)
    d = conjugacy_closure(g._d_seeds, g.generators, g.mul, g.inv)
    assert d == _conjugacy_closure_reference(g._d_seeds, g.generators, g.mul, g.inv)
    assert (els, d) == (g.elements(), g.D)


@pytest.mark.parametrize("k", [2, 3])
def test_generator_homomorphism_matches_the_reference_loop(k):
    small = build_wk_affine_a(k, 3)
    sub = wk_embedding_subgroup(k, 5)
    # Sym(4) has three generators against four
    for g1, g2 in ((sub, small), (small, sub), (build_sym(4), small)):
        hom = generator_homomorphism(g1, g2)
        ref = _generator_homomorphism_reference(g1, g2)
        assert (hom is None) == (ref is None)
        if ref is not None:
            assert list(hom.items()) == list(ref.items())
    # sub maps onto small with a kernel of order 2 for k = 2 only
    assert (generator_homomorphism(small, sub) is None) == (k == 2)
    assert generator_homomorphism(sub, small) is not None
    assert generator_homomorphism(build_sym(4), small) is None


# --- embedding block matrices -------------------------------------------------

def test_embedding_subgroup_orders():
    assert wk_embedding_subgroup(2, 5).order() == 192
    assert wk_embedding_subgroup(3, 5).order() == 648


def generator_bijection(g1, g2):
    """The generator pairing extended to an isomorphism, or None: the oracle
    for a trivial kernel in `embedding_check`, which reads the kernel of the
    map the other way instead."""
    hom = generator_homomorphism(g1, g2)
    if hom is None:
        return None
    if len(set(hom.values())) != len(hom) or len(hom) != g2.order():
        return None
    return hom


@pytest.mark.parametrize("k", [2, 3])
def test_embedding_exact_bijection_agrees_with_generator_bijection(k):
    small = build_wk_affine_a(k, 3)
    sub = wk_embedding_subgroup(k, 5)
    rep = embedding_check(k, 5)
    assert (rep.kernel_size == 1) == (generator_bijection(small, sub) is not None)
    assert rep.embedded_order == sub.order()
    assert rep.small_order == small.order()


def test_generator_maps():
    small = build_wk_affine_a(3, 3)
    sub = wk_embedding_subgroup(3, 5)
    assert generator_bijection(small, sub) is not None
    small2 = build_wk_affine_a(2, 3)
    sub2 = wk_embedding_subgroup(2, 5)
    assert generator_bijection(small2, sub2) is None
    hom = generator_homomorphism(sub2, small2)
    assert hom is not None
    kernel = [x for x, y in hom.items() if y == small2.identity]
    assert len(kernel) == 2
