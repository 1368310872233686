"""Exact scalar arithmetic over Q and over prime fields F_p of odd characteristic.

Field elements are plain Python values: ``fractions.Fraction`` for the
rationals (always in lowest terms with positive denominator, so equality is
structural) and ints in ``range(p)`` for F_p.  A field object bundles the
operations; everything downstream (matrices, algebras) stays generic over it.
"""

import re
from fractions import Fraction

# Miller-Rabin with the first thirteen primes as bases is exact below
# PRIME_LIMIT, the least strong pseudoprime to all of them (Sorenson and
# Webster, 2015); the first twelve alone are fooled by 318665857834031151167461.
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_LIMIT = 3317044064679887385961981

# The scalars ``Rationals.fmt`` writes: an integer or a fraction n/d.
_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")
# What ``PrimeField.fmt`` writes: a residue and its modulus.
_RESIDUE = re.compile(r"([+-]?[0-9]+) mod ([0-9]+)")
# What ``PrimeField.name`` writes: F and the modulus without a leading zero.
_PRIME_FIELD = re.compile(r"F([1-9][0-9]*)")
# The most decimal digits CPython converts to an int by default
# (sys.int_info.default_max_str_digits); longer numbers are refused as input.
MAX_DIGITS = 4300


class ZeroDenominatorError(ValueError, ZeroDivisionError):
    """A scalar n/d whose d is zero in its field: malformed input, so a
    ValueError, and the division by zero it writes."""


def check_digits(text, what):
    """Raise ValueError ("input too large") when text holds a run of more than
    MAX_DIGITS decimal digits, before anything converts it to a number."""
    if len(text) > MAX_DIGITS and any(
            len(run) > MAX_DIGITS for run in re.findall(r"[0-9]+", text)):
        raise ValueError("input too large: %s has a number of more than %d digits"
                         % (what, MAX_DIGITS))


def _is_prime(n):
    """Deterministic Miller-Rabin for n < PRIME_LIMIT; larger n are refused
    with ValueError, since no verdict on them would be exact."""
    if n >= PRIME_LIMIT:
        raise ValueError("input too large: %d-digit modulus, primality is decided "
                         "only below %d" % (len(str(n)), PRIME_LIMIT))
    if n < 2:
        return False
    for a in _PRIME_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Rationals:
    """The field Q with exact arbitrary-precision arithmetic."""

    characteristic = 0
    name = "Q"

    zero = Fraction(0)
    one = Fraction(1)

    def from_int(self, n):
        return Fraction(n)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / Fraction(a)

    def div(self, a, b):
        if b == 0:
            raise ZeroDivisionError("division by zero")
        return Fraction(a) / b

    def fmt(self, a):
        return "%d/%d" % (a.numerator, a.denominator)

    def parse(self, s):
        """Read an integer or a fraction n/d, as ``fmt`` writes them; decimals,
        exponents and anything else raise ValueError."""
        s = s.strip()
        check_digits(s, "scalar")
        if not _RATIONAL.fullmatch(s):
            raise ValueError("scalar %r is not an integer or a fraction n/d" % (s,))
        den = s.partition("/")[2]
        if den and int(den) == 0:
            raise ZeroDenominatorError("scalar %r has a zero denominator" % (s,))
        return Fraction(s)

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "Rationals()"


class PrimeField:
    """The field F_p for an odd prime p; elements are ints in range(p)."""

    def __init__(self, p):
        if not _is_prime(p):
            raise ValueError("modulus %r is not prime" % (p,))
        if p == 2:
            raise ValueError("characteristic 2 is not supported")
        self.p = p
        self.characteristic = p
        self.name = "F%d" % p
        self.zero = 0
        self.one = 1

    def from_int(self, n):
        return n % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def fmt(self, a):
        return "%d mod %d" % (a % self.p, self.p)

    def parse(self, s):
        """Read ``<int> mod <p>``, as ``fmt`` writes it, or an integer or a
        fraction n/d in ASCII digits; anything else raises ValueError."""
        s = s.strip()
        check_digits(s, "scalar")
        residue = _RESIDUE.fullmatch(s)
        if residue:
            if int(residue[2]) != self.p:
                raise ValueError("scalar %r has wrong modulus for %s" % (s, self.name))
            return int(residue[1]) % self.p
        if not _RATIONAL.fullmatch(s):
            raise ValueError("scalar %r is not an integer, a fraction n/d or "
                             "a residue 'r mod %d'" % (s, self.p))
        num, _, den = s.partition("/")
        num = int(num) % self.p
        if not den:
            return num
        if int(den) % self.p == 0:
            raise ZeroDenominatorError("scalar %r has a zero denominator in %s"
                                       % (s, self.name))
        return self.div(num, int(den))

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("F", self.p))

    def __repr__(self):
        return "PrimeField(%d)" % self.p


def field_from_name(name):
    """Parse a field flag: ``Q`` or ``F<p>`` for an odd prime p, written as
    ``name`` writes it (ASCII digits, no sign, no leading zero)."""
    name = name.strip()
    if name == "Q":
        return Rationals()
    modulus = _PRIME_FIELD.fullmatch(name)
    if modulus:
        check_digits(name, "field")
        return PrimeField(int(modulus[1]))
    raise ValueError("unknown field %r (expected Q or F<p>)" % (name,))


def scalar_from_string(field, s):
    """Read a scalar such as ``1/2`` or ``-3`` into the given field."""
    return field.parse(s)
