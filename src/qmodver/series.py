"""Truncated Laurent-Puiseux series in q with exact rational coefficients.

A series lives on the exponent grid (offset + i)/ramification, i >= 0, and is
known modulo q^order: every retained exponent is strictly below `order`, and
operations propagate the sharpest order they can justify rather than a fixed
global truncation.  All values are immutable and all operations are pure.

A series is stored in one canonical form, on its support lattice: the
offset is the first nonzero slot, `vals[j] / den` is the coefficient of slot
offset + j*g up to the last nonzero slot, every other slot below the order
holds the domain's zero, and g is the gcd spacing of the nonzero slots.  So
eta (exponents 1/24 + integers on the 1/24 grid) keeps one value per integer,
not 24, and the characters one in 12.  An exact series stores integer
numerators over one denominator den >= 1 with gcd(den, *vals) = 1, so den = 1
exactly when every coefficient is an integer; a complex series stores its
values with den = 1.  The readers (`coeffs`, the dense view built on demand
for code outside the package, `terms`, `coefficient_at`, JSON, `evaluate`)
show an exact coefficient as an `int` when integral, else a `Fraction`.

Complex-domain series (python `complex` coefficients with finite components)
are evaluation-only: they can be built, serialized, read, regridded
(`truncate`, `rescale`, `shifted`) and evaluated, and every arithmetic or
comparison kernel raises `WrongDomainError` on them.  `evaluate` reads exact
series directly and returns, bit for bit, what their `to_complex()` returns;
it sums only the terms before `exp` underflows to zero (and computes no
tail term when five or more are past that cut), stops once a bound on every
later term is below a quarter ulp of each part of the running sum (so no
later term can change a bit of it), and refuses a tau whose phases
exp(2 pi i Re(tau) e) would carry no correct bit.

The exact kernels compute on the stored integers and carry den, never
converting a coefficient to float or Fraction, and read and write lattice
values only.  `from_slots`, the one constructor that sums (slot, value)
pairs, builds each coefficient once.  `__mul__` convolves numerators on the
product lattice by one of two kernels: schoolbook, one multiply-add per
nonzero pair, or Kronecker substitution, one CPython big-int multiply of the
operands packed as fixed-width byte digits.  One rule, read from the
operands alone, picks Kronecker when their nonzero pairs are at least twice
the bytes it would pack, so sparse series such as the Euler product stay on
schoolbook and dense ones take Kronecker.  `a / b` solves b c = a in
integers on the quotient lattice by halves (van der Hoeven's semi-relaxed
division), so its values stay as wide as the quotient's, and stores what
a * b.invert() would; `invert` is the same solver with a = [1] on the
divisor's own lattice.  Each solved block reaches the rest of its range
through a block product where the same rule takes it, through schoolbook
where the rule turns it down but at least half the block is zero (a sparse
quotient such as theta), and otherwise through the recurrence term by term
(the dense inverse of the Euler product).  `**` is one(order) times the
repeated squares, so `*` alone sets its order.  `first_mismatch` spreads
both sides onto one lattice over one den and compares the two lists, which
`__add__` sums; `__mul__` and `/` share one placement, `_on_pair_lattice`.
`_on_lattice` places every operand, and `_slot_count` counts the points of
every lattice below an order.  The builders that a run repeats
(`specfun.partition_gf`, `specfun.dedekind_eta`, `lattice.character`,
`lattice.eta_theta_form`) are memoized where they are defined.
"""

from __future__ import annotations

import cmath
import math
from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate
from math import gcd, lcm
from operator import add, ge
from typing import Iterator, NamedTuple, Union

from ._record import FrozenRecord

EXACT = "exact"
COMPLEX = "complex"

Coeff = Union[int, Fraction, complex]
RationalLike = Union[Fraction, int]

# exp(x) is exactly 0.0 for every float x below about -745.13, so evaluate
# skips a term whose Re(w * e) is below this; -750 leaves a margin for the
# rounding of w * e and of the cut exponent
_EXP_UNDERFLOW = -750.0
# at |Im(w * e)| >= 2^52 adjacent floats are at least 1 apart, so the phase
# of exp(w * e) carries no correct bit and evaluate refuses the tau
_PHASE_LIMIT = 2.0 ** 52
# evaluate sums this many terms before it first checks its quarter-ulp cut
# (and doubles the terms summed while a part of the sum is still zero); a
# series with at most this many kept terms before its last five is summed
# whole, which keeps the check off eta at order 60 (at most 13 terms)
_FIRST_CHECK = 8


class SeriesError(Exception):
    """Base class for series construction and arithmetic failures."""


class WrongDomainError(SeriesError):
    """Arithmetic or comparison applied to an evaluation-only complex series."""


class DomainPromotionRequired(SeriesError):
    """Exact-domain operation would need irrational coefficients."""


class NonInvertibleError(SeriesError):
    """Leading coefficient is zero (or the series has no retained terms)."""


class BeyondTruncationError(SeriesError):
    """Requested coefficient lies at or beyond the known order."""


class EvaluationError(SeriesError):
    """Numeric evaluation precondition failed."""


class NotInUpperHalfPlane(EvaluationError):
    pass


class InsufficientConvergence(EvaluationError):
    pass


class EvalResult(NamedTuple):
    value: complex
    tail_estimate: float
    tail_reliable: bool


def _as_fraction(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


_COMPLEX_ZERO = complex(0.0)  # one object, so every zero slot of a series is the same


def _zero_of(domain: str) -> Coeff:
    return 0 if domain == EXACT else _COMPLEX_ZERO


def _ratio(n: int, d: int) -> Coeff:
    """n/d as an int when integral, else a Fraction, for d >= 1 (n when d = 1)."""
    if d == 1:
        return n
    g = gcd(n, d)
    if g == d:
        return n // d
    return Fraction(n // g, d // g)


def _require_exact(*series: "PuiseuxSeries"):
    for s in series:
        if s.domain != EXACT:
            raise WrongDomainError(
                "complex series are evaluation-only; arithmetic and comparison "
                "need exact series")


def _check_coeff(c: Coeff, domain: str) -> Coeff:
    if domain == EXACT:
        if isinstance(c, (int, Fraction)):
            return c
        raise SeriesError(f"exact series needs int or Fraction coefficients, got {type(c).__name__}")
    c = complex(c)
    if not (math.isfinite(c.real) and math.isfinite(c.imag)):
        raise SeriesError("non-finite complex coefficient")
    return c


def _slot_count(order: RationalLike, D: int, off: int, step: int = 1) -> int:
    """The number of lattice points below the order: integers i >= 0 with
    (off + i*step)/D < order, ceil((ceil(order * D) - off) / step), in integers."""
    top = -(-order.numerator * D // order.denominator)
    return max(0, -((off - top) // step))


def _bits(vals) -> int:
    """The bit length of the largest |value| (0 for no values)."""
    return max(map(abs, vals), default=0).bit_length()


def _schoolbook(a, b, m: int) -> list:
    """The first m coefficients of the product of the integer lists a and b,
    summed over their nonzero pairs: the kernel for sparse operands."""
    a = [(i, x) for i, x in enumerate(a) if x]
    b = [(i, y) for i, y in enumerate(b) if y]
    acc = [0] * m
    for ia, x in a:
        lim = m - ia
        for ib, y in b:
            if ib >= lim:
                break
            acc[ia + ib] += x * y
    return acc


def _bias(nb: int, n: int) -> int:
    """sum 2^(8nb-1) * 256^(nb*i) over i < n: half a digit in each of n nb-byte digits."""
    return int.from_bytes((1 << (8 * nb - 1)).to_bytes(nb, "little") * n, "little")


def _pack(vals, nb: int) -> int:
    """sum vals[i] * 256^(nb*i) for |vals[i]| < 256^nb / 2, in one pass: each
    value is written as the nonnegative digit vals[i] + 256^nb / 2, and the
    bias is taken off the packed integer."""
    half = 1 << (8 * nb - 1)
    buf = b"".join([(v + half).to_bytes(nb, "little") for v in vals])
    return int.from_bytes(buf, "little") - _bias(nb, len(vals))


def _digit_bytes(a, b) -> int:
    """Kronecker's digit width in bytes for a*b: bits(a) + bits(b) +
    bits(min length) + 1 bits, rounded up."""
    return -(-(_bits(a) + _bits(b) + min(len(a), len(b)).bit_length() + 1) // 8)


def _kronecker(a, b, m: int) -> list:
    """The first m coefficients of the product of the integer lists a and b,
    from one big-int multiply (Kronecker substitution, Harvey 2009).

    Each list is packed as the integer A = sum a_i X^i at X = 256^nb, where
    nb bytes hold bits(a) + bits(b) + bits(min length) + 1 bits, so every
    product coefficient c_i, and every a_i and b_i, has magnitude below X/2.
    Adding X/2 to each digit of A*B makes every digit nonnegative, so the
    digits unpack with no borrow.
    """
    nb = _digit_bytes(a, b)
    pa = _pack(a, nb)
    x = pa * pa if b is a else pa * _pack(b, nb)
    half = 1 << (8 * nb - 1)
    size = nb * m
    buf = ((x + _bias(nb, m)) & ((1 << (8 * size)) - 1)).to_bytes(size, "little")
    return [int.from_bytes(buf[i:i + nb], "little") - half for i in range(0, size, nb)]


def _kronecker_pays(a, b) -> bool:
    """Kronecker when the nonzero pairs of a and b are at least twice the
    bytes it packs: its work grows with those bytes, schoolbook's with the
    pairs.  So sparse operands such as the Euler product, eta and theta,
    and a sparse operand against a wide dense one, keep schoolbook, and
    `_quotient` turns down block products whose digits are too wide for
    their length (1/E4, 1/E6).  A digit takes a byte at least, so fewer pairs
    than 2 (len a + len b) decide before any width is computed."""
    pairs = (len(a) - a.count(0)) * (len(b) - b.count(0))
    bound = 2 * (len(a) + len(b))
    return pairs >= bound and pairs >= bound * _digit_bytes(a, b)


_BLOCK = 64  # _quotient runs the recurrence directly on ranges of at most this many terms


def _recur(f: list, tail: list, n0: int, lo: int, start: int, stop: int):
    """f[start:stop] by the recurrence n0 f[i] = -(f[i] + sum n_k f[i-k]) over
    the nonzero (k, n_k), k >= 1, in tail with i - k >= lo: on entry f[i]
    holds the negated right-hand side and the terms that reach it from
    before f[lo].  Those (k, n_k) are a prefix of tail, `near`, that grows
    with i."""
    near, j = [], 0
    for i in range(start, stop):
        while j < len(tail) and tail[j][0] <= i - lo:
            near.append(tail[j])
            j += 1
        s = f[i]
        for k, x in near:
            s += x * f[i - k]
        f[i] = -s // n0


def _quotient(a, n, M: int, top: int) -> list:
    """The integers e_0, ..., e_{M-1} with
    n_0 e_m = top a_m - sum_{k=1..m} n_k e_{m-k}, for integer lists a (at
    most M entries, zero beyond) and n with n_0 != 0, and a top that makes
    every division exact: top times the first M coefficients of a/n.  The
    reciprocal is a = [1].

    Divide and conquer over the index range (van der Hoeven's semi-relaxed
    division): `solve(lo, hi)` solves e[lo:hi] when e[m] holds, for each m
    in the range, -top a_m plus the terms n_k e_{m-k} with m - k < lo.  It
    solves the left half, then reaches the right half from it in one of
    three ways.  When `_kronecker_pays` takes the product of that block of e
    with n_1 .. n_{hi-lo-1}, or when it turns the product down but at least
    half of the block is zero (a sparse quotient such as theta), it forms
    the whole product, by Kronecker or schoolbook, adds the part that lands
    in the right half and solves that half the same way.  Otherwise (a dense
    block against a sparse n, as in the inverse of the Euler product, or
    blocks too wide in bits for their length) the right half runs the
    recurrence term by term, summing the terms from e[lo] on.  Ranges of at
    most `_BLOCK` coefficients run the recurrence directly.
    """
    tail = [(k, x) for k, x in enumerate(n) if k and x]
    e = [-top * x for x in a] + [0] * (M - len(a))

    def solve(lo: int, hi: int) -> None:
        if hi - lo <= _BLOCK:
            _recur(e, tail, n[0], lo, lo, hi)
            return
        mid = (lo + hi) // 2
        solve(lo, mid)
        left, right = e[lo:mid], n[1:hi - lo]
        if _kronecker_pays(left, right):
            c = _kronecker(left, right, hi - lo - 1)  # c[i]: the terms at m = lo + 1 + i
        elif 2 * left.count(0) >= len(left):
            c = _schoolbook(left, right, hi - lo - 1)
        else:
            _recur(e, tail, n[0], lo, mid, hi)
            return
        e[mid:hi] = map(add, e[mid:hi], c[mid - lo - 1:])
        solve(mid, hi)

    solve(0, M)
    return e


def _spread(values: dict, domain: str) -> tuple[int, list]:
    """(g, vals) for {i: value} with slot indices i >= 0: vals[j] is the value
    at i = j*g (the domain's zero where there is none), g the gcd of the
    indices (1 when that is 0)."""
    g = gcd(*values) or 1
    vals = [_zero_of(domain)] * (max(values, default=-1) // g + 1)
    for i, v in values.items():
        vals[i // g] = v
    return g, vals


class PuiseuxSeries(FrozenRecord):
    """The coefficient of q^((offset + i)/ramification), for every slot i below
    order, is vals[i // g] / den when g divides i and the domain's zero
    otherwise.

    `_store`, the one place that canonicalizes, makes the stored form
    (ramification, offset, g, vals, den, order, domain) the value: exact
    integer numerators over den with gcd(den, *vals) = 1, or finite complex
    values with one shared complex zero and den = 1; vals from the first to
    the last nonzero slot (empty for a zero series, which keeps its offset),
    g the gcd spacing of the nonzero slots (1 when there are fewer than two).
    So `==`, hashing, `lead`, `is_zero` and `support_step` read fields.
    `coeffs` is the dense tuple over every slot; repr and pickling show the
    dense fields.  `_float_cache` is filled on first evaluation.
    """

    _fields = ("ramification", "offset", "coeffs", "order", "domain")
    __slots__ = ("ramification", "offset", "g", "vals", "den", "order", "domain", "_float_cache")

    def __init__(self, ramification: int, offset: int, coeffs: tuple, order: Fraction,
                 domain: str):
        self._store(ramification, offset, 1, coeffs, order, domain, dense=True)

    def _store(self, D: int, off: int, g: int, vals, order: Fraction, domain: str,
               den: int = 1, dense: bool = False):
        """Set the canonical fields from vals on the lattice off + g*Z, each an
        exact (int or Fraction) value over den or a complex value (den = 1),
        after the checks of the dense constructor (dense: vals is the dense
        tuple, whose length must be the slot count)."""
        if D < 1:
            raise SeriesError("ramification must be a positive integer")
        if domain not in (EXACT, COMPLEX):
            raise SeriesError(f"unknown domain {domain!r}")
        if type(den) is not int or den < 1 or (domain == COMPLEX and den != 1):
            raise SeriesError(f"den must be a positive int (1 for complex series), got {den!r}")
        n = _slot_count(order, D, off)
        if dense and len(vals) != n:
            raise SeriesError(
                f"coefficient list length {len(vals)} != {n} slots below order {order}")
        if domain == COMPLEX:
            vals = [_check_coeff(c, COMPLEX) or _COMPLEX_ZERO for c in vals]
        elif not set(map(type, vals)) <= {int}:
            vals = [_check_coeff(c, EXACT) for c in vals]
            d = lcm(*[c.denominator for c in vals])
            vals = [c.numerator * (d // c.denominator) for c in vals]
            den *= d
        first, last = 0, len(vals) - 1
        while last >= 0 and not vals[last]:
            last -= 1
        if last * g >= n:
            raise SeriesError(f"a stored slot lies at or beyond the order {order}")
        while first < last and not vals[first]:
            first += 1
        h = max(last - first, 0)  # the gcd spacing of the nonzero slots, early out at 1
        for j in range(first + 1, last):
            if h == 1:
                break
            if vals[j]:
                h = gcd(h, j - first)
        off += first * g
        vals = vals[first:last + 1:h or 1]
        c = gcd(den, *vals) if den != 1 else 1  # empty vals: c = den, so den becomes 1
        if c != 1:
            den, vals = den // c, [v // c for v in vals]
        for name, value in (("ramification", D), ("offset", off), ("g", g * h or 1),
                            ("vals", tuple(vals)), ("den", den), ("order", order),
                            ("domain", domain)):
            object.__setattr__(self, name, value)

    @staticmethod
    def _from_lattice(D: int, off: int, g: int, vals, order: Fraction,
                      domain: str = EXACT, den: int = 1) -> "PuiseuxSeries":
        """The series whose slot off + j*g of the 1/D grid holds vals[j] / den
        (exact values, or complex values with den = 1), and every other slot
        below order the domain's zero."""
        s = object.__new__(PuiseuxSeries)
        s._store(D, off, g, vals, order, domain, den)
        return s

    def _read_vals(self) -> tuple:
        """The stored coefficients as read: vals[j] / den, canonical."""
        if self.den == 1:
            return self.vals
        return tuple([_ratio(v, self.den) for v in self.vals])

    @property
    def coeffs(self) -> tuple:
        """The dense view: one value per slot below the order."""
        cs = [_zero_of(self.domain)] * _slot_count(self.order, self.ramification, self.offset)
        cs[:len(self.vals) * self.g:self.g] = self._read_vals()
        return tuple(cs)

    def _key(self) -> tuple:
        return self.ramification, self.offset, self.g, self.vals, self.den, self.order, self.domain

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(order: RationalLike, domain: str = EXACT) -> "PuiseuxSeries":
        order = _as_fraction(order)
        off = math.ceil(order)  # no slots below order
        return PuiseuxSeries._from_lattice(1, off, 1, (), order, domain)

    @staticmethod
    def one(order: RationalLike, domain: str = EXACT) -> "PuiseuxSeries":
        """The empty product: 1 below the order, the zero series at an order <= 0."""
        return PuiseuxSeries.from_terms([(0, _zero_of(domain) + 1)], order, domain)

    @staticmethod
    def monomial(coeff, exp: RationalLike, order: RationalLike,
                 domain: str | None = None) -> "PuiseuxSeries":
        exp = _as_fraction(exp)
        order = _as_fraction(order)
        if exp >= order:
            raise SeriesError(f"monomial exponent {exp} not below order {order}")
        if domain is None:
            domain = COMPLEX if isinstance(coeff, complex) else EXACT
        return PuiseuxSeries.from_terms([(exp, coeff)], order, domain)

    @staticmethod
    def from_terms(terms, order: RationalLike, domain: str = EXACT,
                   ramification: int = 1) -> "PuiseuxSeries":
        """Accumulate (exponent, coefficient) pairs; terms at/beyond order are dropped."""
        order = _as_fraction(order)
        zero = _zero_of(domain)  # added to each value, so a complex -0.0 part reads 0.0
        kept = []
        D = lcm(ramification, order.denominator)
        for e, c in terms:
            e = _as_fraction(e)
            if e < order:
                kept.append((e, zero + _check_coeff(c, domain)))
                D = lcm(D, e.denominator)
        return PuiseuxSeries.from_slots(
            ((e.numerator * (D // e.denominator), c) for e, c in kept), D, order, domain)

    @staticmethod
    def from_slots(terms, D: int, order: RationalLike, domain: str = EXACT,
                   den: int = 1) -> "PuiseuxSeries":
        """Accumulate (k, value) pairs at exponents k/D below order; the first
        nonzero slot becomes the offset.

        An exact coefficient is the sum of its values (ints or Fractions)
        divided by den, an int >= 1; a complex series takes den = 1.  Each
        output coefficient is built once.
        """
        order = _as_fraction(order)
        top = math.ceil(order * D)
        acc: dict[int, Coeff] = {}
        for k, c in terms:
            if k < top:
                acc[k] = acc[k] + c if k in acc else c
        nonzero = [k for k, c in acc.items() if c != 0]
        if not nonzero:
            return PuiseuxSeries.zero(order, domain)
        base = min(nonzero)
        return PuiseuxSeries._from_lattice(
            D, base, *_spread({k - base: acc[k] for k in nonzero}, domain), order, domain, den)

    # -- structure ---------------------------------------------------------

    def exponent(self, i: int) -> Fraction:
        return Fraction(self.offset + i, self.ramification)

    def terms(self) -> Iterator[tuple[Fraction, Coeff]]:
        """Nonzero (exponent, coefficient) pairs in increasing exponent order."""
        off, g, D = self.offset, self.g, self.ramification
        for j, c in enumerate(self._read_vals()):
            if c != 0:
                yield Fraction(off + j * g, D), c

    def is_zero(self) -> bool:
        return not self.vals

    def lead(self) -> Fraction | None:
        """Smallest exponent carrying a nonzero coefficient, None for the zero series."""
        return Fraction(self.offset, self.ramification) if self.vals else None

    def _lead_or_order(self) -> Fraction:
        l = self.lead()
        return self.order if l is None else l

    def coefficient_at(self, e: RationalLike) -> Coeff:
        e = _as_fraction(e)
        if e >= self.order:
            raise BeyondTruncationError(f"exponent {e} is not below the known order {self.order}")
        i = e * self.ramification - self.offset
        if i.denominator != 1 or i < 0:
            return _zero_of(self.domain)
        j, r = divmod(int(i), self.g)
        if r or j >= len(self.vals):
            return _zero_of(self.domain)
        return _ratio(self.vals[j], self.den)

    def _float_view(self) -> tuple[tuple, tuple, tuple, float]:
        """(exps, terms, sup, step), built and cached as `_float_cache` by the
        first evaluation at a converging tau: terms[t] is the pair (e, c) of
        the float exponent e = (offset + i)/D and c = complex(coefficient) of
        the t-th nonzero slot i, in increasing order, exps[t] is that e alone
        (for the bisections), sup[t] is the largest |c| over terms u >= t, and
        step is the support step g/D."""
        off, g, D = self.offset, self.g, self.ramification
        terms = tuple([((off + j * g) / D, complex(c))
                       for j, c in enumerate(self._read_vals()) if c])
        sup = tuple(accumulate([abs(c) for _, c in reversed(terms)], max))[::-1]
        view = (tuple([e for e, _ in terms]), terms, sup, g / D)
        object.__setattr__(self, "_float_cache", view)
        return view

    def support_step(self) -> Fraction:
        """Gcd spacing of the nonzero support (falls back to the full 1/D grid)."""
        return Fraction(self.g, self.ramification)

    # -- domain handling ---------------------------------------------------

    def to_complex(self) -> "PuiseuxSeries":
        if self.domain == COMPLEX:
            return self
        return PuiseuxSeries._from_lattice(self.ramification, self.offset, self.g,
                                           self._read_vals(), self.order, COMPLEX)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "PuiseuxSeries") -> "PuiseuxSeries":
        if not isinstance(other, PuiseuxSeries):
            return NotImplemented
        D, d, base, G, order, a, b = self._on_common_lattice(other)
        sums = list(map(add, a, b))
        if not any(sums):
            return PuiseuxSeries.zero(order)
        return PuiseuxSeries._from_lattice(D, base, G, sums, order, EXACT, d)

    def __neg__(self) -> "PuiseuxSeries":
        return self.scale(-1)

    def __sub__(self, other: "PuiseuxSeries") -> "PuiseuxSeries":
        return self + (-other)

    def scale(self, c) -> "PuiseuxSeries":
        """Multiply every coefficient by the exact scalar c."""
        _require_exact(self)
        c = _check_coeff(c, EXACT)
        if c == 0:
            return PuiseuxSeries.zero(self.order)
        return PuiseuxSeries._from_lattice(self.ramification, self.offset, self.g,
                                           [c.numerator * v for v in self.vals], self.order,
                                           EXACT, self.den * c.denominator)

    def __mul__(self, other: "PuiseuxSeries") -> "PuiseuxSeries":
        if not isinstance(other, PuiseuxSeries):
            return NotImplemented
        _require_exact(self, other)
        order = min(self.order + other._lead_or_order(),
                    other.order + self._lead_or_order())
        D, base, G, m, a, b = self._on_pair_lattice(other, order, 1)
        if not a or not b:
            return PuiseuxSeries.zero(order)
        acc = _kronecker(a, b, m) if _kronecker_pays(a, b) else _schoolbook(a, b, m)
        return PuiseuxSeries._from_lattice(D, base, G, acc, order, EXACT, self.den * other.den)

    def __pow__(self, n: int) -> "PuiseuxSeries":
        """self^n, stored as one(order) times the n factors in turn: the
        product with one cuts what squaring knows (more, when lead < 0) to
        what that loop knows, so `*` alone decides the order."""
        if not isinstance(n, int) or n < 0:
            raise SeriesError("series powers must be nonnegative integers (use invert)")
        _require_exact(self)
        one = PuiseuxSeries.one(self.order)
        if n == 0:
            return one
        out = self
        for bit in bin(n)[3:]:
            out = out * out
            if bit == "1":
                out = out * self
        return one * out

    def invert(self) -> "PuiseuxSeries":
        """Multiplicative inverse; requires a nonzero leading coefficient.

        Runs the triangular recurrence on the support lattice, step g slots
        (24 for eta on its 1/24 grid), and stores the inverse there: every
        other coefficient of the inverse is zero (off `_on_pair_lattice`:
        this lattice is what makes `a / b` store exactly `a * b.invert()`).
        With the stored numerators n_k over d, the inverse is stored as
        numerators e_m over den = |n_0|^M, M its number of lattice steps
        below the order, which makes every e_m an integer: n_0 e_0 = d den
        and n_0 e_m = -sum_{k>=1} n_k e_{m-k}, with k and m counted in steps.
        `_quotient` solves that recurrence by halves with the right-hand
        side [1], through block products where they pay.
        """
        _require_exact(self)
        if not self.vals:
            raise NonInvertibleError("cannot invert a series with no nonzero retained term")
        D, g = self.ramification, self.g
        # a = a0 q^lead (1 + u); b = a^{-1} known modulo order - 2*lead
        order = self.order - 2 * Fraction(self.offset, D)
        off = -self.offset
        M = _slot_count(order, D, off, g) if len(self.vals) > 1 else 1
        den = abs(self.vals[0]) ** M
        b = _quotient([1], self.vals, M, self.den * den)
        return PuiseuxSeries._from_lattice(D, off, g, b, order, EXACT, den)

    def __truediv__(self, other: "PuiseuxSeries") -> "PuiseuxSeries":
        """self / other, exact, stored as self * other.invert() is, at the
        order that product knows, without forming the inverse.

        On the quotient lattice base + i*G (our lattice less the divisor's
        offset), with our numerators a_i over d_a and the divisor's n_k over
        d_b, the quotient is stored as numerators e_i over d_a |n_0|^m, m its
        number of lattice points below the order: n_0 e_i = d_b |n_0|^m a_i -
        sum_{k>=1} n_k e_{i-k}, which `_quotient` solves.  Its values stay as
        wide as the quotient's, where the inverse's may grow with m.
        """
        if not isinstance(other, PuiseuxSeries):
            return NotImplemented
        _require_exact(self, other)
        if not other.vals:
            raise NonInvertibleError("cannot divide by a series with no nonzero retained term")
        lead = Fraction(other.offset, other.ramification)
        order = min(self.order - lead, other.order - 2 * lead + self._lead_or_order())
        D, base, G, m, a, n = self._on_pair_lattice(other, order, -1)
        if not a:
            return PuiseuxSeries.zero(order)
        den = abs(n[0]) ** m
        e = _quotient(a, n, m, other.den * den)
        return PuiseuxSeries._from_lattice(D, base, G, e, order, EXACT, self.den * den)

    def q_d_dq(self) -> "PuiseuxSeries":
        """The derivation q d/dq, i.e. (2 pi i)^{-1} d/dtau: c q^e -> c e q^e."""
        _require_exact(self)
        D, off, g = self.ramification, self.offset, self.g
        vals = [v * (off + j * g) for j, v in enumerate(self.vals)]
        return PuiseuxSeries._from_lattice(D, off, g, vals, self.order, EXACT, self.den * D)

    def _regrid(self, D: int, off: int, order: Fraction, p: int = 1) -> "PuiseuxSeries":
        """Our slot i placed at slot i*p of the grid with ramification D,
        offset off and the given order; slots that fall at or beyond the order
        are dropped.  The lattice step becomes g*p."""
        gp = self.g * p
        m = _slot_count(order, D, off, gp)
        return PuiseuxSeries._from_lattice(D, off, gp, self.vals[:m], order, self.domain,
                                           self.den)

    def rescale(self, r: RationalLike) -> "PuiseuxSeries":
        """Exponent map q^e -> q^{re}, realizing tau -> r*tau; order becomes r*order."""
        r = _as_fraction(r)
        if r <= 0:
            raise SeriesError("rescale factor must be positive")
        step = Fraction(r.numerator, r.denominator * self.ramification)
        p = step.numerator
        return self._regrid(step.denominator, self.offset * p, r * self.order, p)

    def shift_tau(self, s: RationalLike) -> "PuiseuxSeries":
        """tau -> tau + s: multiplies c q^e by e^{2 pi i e s} termwise."""
        _require_exact(self)
        s = _as_fraction(s)
        if s == 0:
            return self
        # the phase of slot i is r/M, r = (offset + i) * s.numerator mod M
        M = self.ramification * s.denominator
        off, g = self.offset, self.g
        vals = list(self.vals)
        for j, c in enumerate(vals):
            if c == 0:
                continue
            r = (off + j * g) * s.numerator % M
            if r == 0:
                continue
            if 2 * r == M:
                vals[j] = -c
            else:
                raise DomainPromotionRequired(
                    f"multiplier e^(2 pi i {Fraction(r, M)}) is irrational; "
                    "exact coefficients are rational")
        return PuiseuxSeries._from_lattice(self.ramification, off, g, vals, self.order, EXACT,
                                           self.den)

    def shifted(self, delta: RationalLike) -> "PuiseuxSeries":
        """Multiply by the monomial q^delta (exponent translation)."""
        delta = _as_fraction(delta)
        D = lcm(self.ramification, delta.denominator)
        k = D // self.ramification
        return self._regrid(D, self.offset * k + int(delta * D), self.order + delta, k)

    def truncate(self, order: RationalLike) -> "PuiseuxSeries":
        order = min(_as_fraction(order), self.order)
        return self._regrid(self.ramification, self.offset, order)

    # -- lattice placement and comparison ----------------------------------

    def _on_lattice(self, D: int, d: int, base: int, G: int, m: int) -> list:
        """Our numerators over d, a multiple of den, at the points base + i*G,
        i < m, of the grid D, a lattice that holds every nonzero slot of ours;
        the list ends at our last value placed."""
        step = D // self.ramification
        start = (self.offset * step - base) // G
        if not self.vals or start >= m:
            return []
        q, f = self.g * step // G, d // self.den
        vals = self.vals[:-((start - m) // q)]
        out = [0] * (start + (len(vals) - 1) * q + 1)
        out[start::q] = vals if f == 1 else [v * f for v in vals]
        return out

    def _on_pair_lattice(self, other: "PuiseuxSeries", order: Fraction, sign: int) -> tuple:
        """(D, base, G, m, a, b) for `*` (sign 1) and `/` (sign -1): the result
        lattice base + i*G, i < m, below the order on the grid D = lcm(both
        ramifications, order.denominator), with base our offset plus sign
        times theirs and G the gcd of both steps; a and b are our numerators
        and theirs, each placed from its own offset at step G."""
        D = lcm(self.ramification, other.ramification, order.denominator)
        pa, pb = D // self.ramification, D // other.ramification
        G = gcd(self.g * pa, other.g * pb)
        base = self.offset * pa + sign * other.offset * pb
        m = _slot_count(order, D, base, G)
        a = self._on_lattice(D, self.den, self.offset * pa, G, m)
        b = a if other is self else other._on_lattice(D, other.den, other.offset * pb, G, m)
        return D, base, G, m, a, b

    def _on_common_lattice(self, other: "PuiseuxSeries") -> tuple:
        """(D, d, base, G, order, a, b): both sides as numerators over d =
        lcm(dens) at the points base + i*G of the grid D below the smaller
        order, a lattice from the lower offset that holds the nonzero slots of
        both; the two lists have one length."""
        _require_exact(self, other)
        order = min(self.order, other.order)
        D = lcm(self.ramification, other.ramification, order.denominator)
        d = lcm(self.den, other.den)
        lattices = [(s.offset * (D // s.ramification), s.g * (D // s.ramification))
                    for s in (self, other) if s.vals]
        # two zero series place nothing, on any lattice
        base = min([k0 for k0, _ in lattices], default=0)
        G = gcd(*[x for k0, dk in lattices for x in (k0 - base, dk)]) or 1
        m = _slot_count(order, D, base, G)
        a, b = (s._on_lattice(D, d, base, G, m) for s in (self, other))
        n = max(len(a), len(b))
        a += [0] * (n - len(a))
        b += [0] * (n - len(b))
        return D, d, base, G, order, a, b

    def first_mismatch(self, other: "PuiseuxSeries"):
        """First (exponent, self-coeff, other-coeff) differing below min(order), else None.

        Both sides are spread over one denominator onto one lattice of the
        common grid that holds the nonzero slots of each, up to the smaller
        order, and compared as lists; they are walked only when they differ."""
        D, d, base, G, _, a, b = self._on_common_lattice(other)
        if a == b:
            return None
        i = next(i for i, (x, y) in enumerate(zip(a, b)) if x != y)
        return Fraction(base + i * G, D), _ratio(a[i], d), _ratio(b[i], d)

    def equals(self, other: "PuiseuxSeries") -> bool:
        """Coefficient-wise equality up to min(order), tolerant of grid differences."""
        return self.first_mismatch(other) is None

    # -- evaluation --------------------------------------------------------

    def evaluate(self, tau: complex) -> EvalResult:
        """Numeric value at q = e^{2 pi i tau} plus a geometric tail estimate.

        The convergence ratio rho uses the effective spacing of the nonzero
        support (e.g. 1 for eta, whose exponents are 1/24 + integers), not the
        raw 1/D grid, so sparse theta-type series evaluate wherever they
        actually converge.  A zero series has value 0j, tail 0.0 and a
        reliable flag once tau passes these checks.

        The value is the sum, in increasing exponent order from 0j, of
        complex(c) * exp(w * e) with w = 2 pi i tau and e the correctly rounded
        float exponent of each nonzero term, read as (e, c) pairs from the
        cached float view, so an exact series evaluates bit for bit as its
        to_complex() does.  The sum stops before the first exponent with
        Re(w * e) < _EXP_UNDERFLOW, found by bisection when the last exponent
        is past it and w * e is finite there: past it every exp(w * e) is
        (+-0, +-0) and every term a signed zero, and a sum that starts at +0j
        never becomes -0.0, so adding them changes no bit and raises nothing.
        A skipped term counts as 0.0 among the last five that the tail and
        the reliability flag read, so when five or more are skipped the tail
        is 0.0 and the flag True, and no kept term is computed for them alone.
        Before any exp, it raises `EvaluationError` when |Im(w) * e| reaches
        `_PHASE_LIMIT` at a kept exponent: that phase would carry no correct
        bit (and at such a tau, tau + 1 may round to tau).

        Among the kept terms, the sum also stops at the first checked index i
        where 2 * sup[i] * |q|^e_i (sup[i] the largest |c| from i on, read
        from the float view, and e_i >= 0) is below a quarter ulp of each part
        of the running sum s: no later term can then change a bit of s.  Each
        later term c q^e has real and imaginary parts of at most |c| |q|^e <=
        sup[i] |q|^e_i (|q| < 1 and e >= e_i), up to a few ulps of rounding in
        exp and the product, which the 2 covers.  A part below a quarter ulp is
        under half the float spacing on either side of s, even where s is a
        power of two and the spacing below it is half an ulp, so s + t rounds
        to s (round to nearest; Higham, *Accuracy and Stability of Numerical
        Algorithms*, ch. 2), term after term.  A negative e_i never cuts, so
        |q|^e_i cannot overflow.  A part that is zero, subnormal or not finite
        has a quarter ulp of 0.0 and never cuts; so a real series at a purely
        imaginary tau sums every kept term.  The first check comes after
        `_FIRST_CHECK` terms (the prefix doubles while a part is still zero);
        each further check bisects on the bound, which falls as i grows (sup
        falls and so does |q|^e), for the first index below the current
        quarter ulp, sums up to it and checks there again, since a sum that
        cancels has a smaller ulp.  Only indices before the last five kept
        terms are checked, because the tail and the reliability flag read
        those five: one loop after the checks computes them with the same
        expression, sums them and takes their moduli.  After a cut each is
        below a quarter ulp of the sum, as every later term is, so adding it
        changes no bit; and after a cut they are not computed at all when
        five or more terms were skipped.  Without a cut they are computed
        whatever the skip, so a kept term whose modulus exceeds the float
        range raises `OverflowError` there as `abs` does (after a cut none
        can).

        So results are bit-identical to summing c * exp(2 pi i tau *
        float(e)) over every term with Fraction exponents; keep the per-term
        exp (Horner's rule or powers of q would round differently).
        """
        tau = complex(tau)
        if not cmath.isfinite(tau):
            raise NotInUpperHalfPlane(f"tau = {tau} is not finite")
        if tau.imag <= 0:
            raise NotInUpperHalfPlane(f"Im(tau) = {tau.imag} is not positive")
        try:
            exps, terms, sup, step = self._float_cache
        except AttributeError:  # built below, after the convergence check
            exps, step = None, self.g / self.ramification
        rho = math.exp(-2 * math.pi * tau.imag * step)
        if rho >= 0.9:
            raise InsufficientConvergence(
                f"|q|^step = {rho:.4f} >= 0.9 at tau = {tau}")
        if not exps:
            if exps is None:  # complex(c) may overflow, so only for a converging tau
                exps, terms, sup, step = self._float_view()
            if not exps:
                return EvalResult(0j, 0.0, True)
        w = 2j * math.pi * tau
        re_w = w.real
        last = _EXP_UNDERFLOW / re_w  # exp(w * e) underflows past this exponent
        n = cut = len(exps)
        if exps[-1] > last and cmath.isfinite(w * exps[-1]):
            # Re(w) = -2 pi Im(tau) < 0, and |w * e| grows with e > 0, so
            # every skipped w * e is finite too
            cut = bisect_right(exps, last)
        if cut and abs(w.imag) * max(-exps[0], exps[cut - 1]) >= _PHASE_LIMIT:
            raise EvaluationError(
                f"Re(tau) = {tau.real} is too large: the phases of the terms at "
                f"tau = {tau} carry no correct bit")
        exp = cmath.exp
        top = max(cut - 5, 0)  # [top, cut) are the last five kept terms, for the tail
        value = 0j
        i, j = 0, (_FIRST_CHECK if _FIRST_CHECK < top else top)
        while True:
            for e, c in terms[i:j]:
                value += c * exp(w * e)
            i = j
            if i == top:
                break
            # a quarter ulp of the smaller part: 0.0 for a zero, subnormal or
            # non-finite part, which never cuts
            quarter = (min(math.ulp(value.real), math.ulp(value.imag)) / 4
                       if cmath.isfinite(value) else 0.0)
            if not quarter:
                j = min(2 * i, top)
                continue
            # the first index in [i, top) whose bound is below quarter, top if
            # none: i first, then a bisection of the rest
            e = exps[i]
            if e >= 0 and 2 * sup[i] * math.exp(re_w * e) < quarter:
                break
            lo, hi = i + 1, top
            while lo < hi:
                mid = (lo + hi) // 2
                e = exps[mid]
                if e >= 0 and 2 * sup[mid] * math.exp(re_w * e) < quarter:
                    hi = mid
                else:
                    lo = mid + 1
            j = lo
        # |t| for the last five kept terms t, each summed too (a no-op after a
        # cut); none is formed when the cut fired and five skipped terms fill the window
        recent = []
        if i == top or n - cut < 5:
            for e, c in terms[top:cut]:
                t = c * exp(w * e)
                value += t
                recent.append(abs(t))
        if cut < n:
            recent = (recent + [0.0] * min(n - cut, 5))[-5:]
        reliable = all(map(ge, recent, recent[1:]))  # False at a NaN, too
        return EvalResult(value, recent[-1] * rho / (1.0 - rho), reliable)

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        terms = []
        for j, c in enumerate(self._read_vals()):
            if c == 0:
                continue
            if self.domain == EXACT:
                coeff = {"num": c.numerator, "den": c.denominator}
            else:
                coeff = {"re": c.real, "im": c.imag}
            terms.append({"i": j * self.g, "coeff": coeff})
        return {
            "ramification": self.ramification,
            "offset": self.offset,
            "order": {"num": self.order.numerator, "den": self.order.denominator},
            "domain": self.domain,
            "terms": terms,
        }

    @staticmethod
    def from_json_dict(d: dict) -> "PuiseuxSeries":
        order = Fraction(d["order"]["num"], d["order"]["den"])
        domain = d["domain"]
        D, off = d["ramification"], d["offset"]
        n = _slot_count(order, D, off)
        values = {}
        for t in d["terms"]:
            i, c = t["i"], t["coeff"]
            if not 0 <= i < n:
                raise SeriesError(f"term index {i} is not below the {n} slots of order {order}")
            values[i] = _ratio(c["num"], c["den"]) if domain == EXACT else complex(c["re"], c["im"])
        return PuiseuxSeries._from_lattice(D, off, *_spread(values, domain), order, domain)

    def __str__(self):
        parts = [f"{c}*q^({e})" for e, c in self.terms()]
        body = " + ".join(parts) if parts else "0"
        return f"{body} + O(q^({self.order}))"
