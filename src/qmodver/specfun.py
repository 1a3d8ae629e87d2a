"""Special q-series: Bernoulli polynomials, twisted Q_k and the Eisenstein
series E_k, which is Q_k at the trivial twist (mu, lambda) = (1, 1), Dedekind
eta, Jacobi theta functions and the partition generating function.

Everything is returned as an exact PuiseuxSeries unless a twist forces complex
coefficients (roots of unity other than +-1).
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache, wraps
from math import comb, lcm
from operator import add

from ._record import FrozenRecord
from .series import COMPLEX, EXACT, PuiseuxSeries, SeriesError


class InvalidTwistError(SeriesError):
    """Q_k at (mu, lambda) = (1, 1) with an odd k: Q_1 has a pole there
    (lambda/(1 - lambda)), and E_k, which Q_k is there, is taken for even k only."""


def _memoized_by_order(build):
    """build(order) memoized by Fraction(order) in a bounded lru_cache, so an
    int order and the equal Fraction share one entry (lru_cache keys a lone
    int argument by the int itself, apart from any Fraction); cache_info and
    cache_clear are the cache's."""
    cached = lru_cache(maxsize=8)(build)

    @wraps(build)
    def builder(order):
        return cached(Fraction(order))

    builder.cache_info, builder.cache_clear = cached.cache_info, cached.cache_clear
    return builder


@lru_cache(maxsize=1)
def _tangent_numbers(n: int) -> tuple[int, ...]:
    """(0, T_1, ..., T_n), T_k the k-th tangent number (tan x = sum T_k
    x^(2k-1)/(2k-1)!), by Brent and Harvey's integer triangle ("Fast
    computation of Bernoulli, tangent and secant numbers", 2011): O(n^2)
    integer multiply-adds and no gcd."""
    t = [0, 1] + [0] * (n - 1)
    for k in range(2, n + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, n + 1):
        for j in range(k, n + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return tuple(t)


@lru_cache(maxsize=None)
def bernoulli_number(k: int) -> Fraction:
    """B_k (B_1 = -1/2), from the tangent numbers:
    B_2n = (-1)^(n-1) 2n T_n / (4^n (4^n - 1)), and B_k = 0 for odd k > 1.
    The table is built up to a power of two, so reading B_0, B_1, ..., B_k
    in turn builds O(log k) tables."""
    if k == 0:
        return Fraction(1)
    if k == 1:
        return Fraction(-1, 2)
    if k % 2:
        return Fraction(0)
    n = k // 2
    t = _tangent_numbers(1 << (n - 1).bit_length())[n]
    return Fraction((-1) ** (n - 1) * k * t, 4 ** n * (4 ** n - 1))


def bernoulli_poly(k: int, x: Fraction) -> Fraction:
    """B_k(x) = sum_i C(k, i) B_i x^{k-i}; B_1(0) = -1/2."""
    if k < 0:
        raise ValueError("Bernoulli polynomial degree must be nonnegative")
    x = Fraction(x)
    return sum(comb(k, i) * bernoulli_number(i) * x ** (k - i) for i in range(k + 1))


def divisor_sigma(k: int, n: int) -> int:
    """sum of d^k over the divisors d of n."""
    if n < 1:
        raise ValueError("divisor_sigma needs n >= 1")
    total = 0
    d = 1
    while d * d <= n:
        if n % d == 0:
            total += d ** k
            e = n // d
            if e != d:
                total += e ** k
        d += 1
    return total


def eisenstein(k: int, order) -> PuiseuxSeries:
    """Normalized Eisenstein series -B_k/k! + (2/(k-1)!) sum sigma_{k-1}(n) q^n:
    Q_k at (mu, lambda) = (1, 1), where both geometric sums run over x = 1, 2,
    ... with weight x^{k-1}/(k-1)! and together give 2 sigma_{k-1}(n)/(k-1)!."""
    if k < 2 or k % 2 != 0:
        raise ValueError("Eisenstein series is defined here for even k >= 2")
    return q_twisted(k, TwistParams(0, 1, 0, 1), order)


class TwistParams(FrozenRecord):
    """(j, T, l, T1) encoding mu = e^{2 pi i j/T}, lambda = e^{2 pi i l/T1}."""
    __slots__ = _fields = ("j", "T", "l", "T1")

    def __init__(self, j: int, T: int, l: int, T1: int):
        if T < 1 or T1 < 1:
            raise ValueError("twist orders T, T1 must be positive")
        if not (0 <= j < T and 0 <= l < T1):
            raise ValueError("twist exponents must satisfy 0 <= j < T, 0 <= l < T1")
        super().__init__(j, T, l, T1)

    @property
    def trivial(self) -> bool:
        return self.j == 0 and self.l == 0

    @property
    def lambda_real(self) -> bool:
        # lambda in {1, -1} iff 2l/T1 is an integer
        return (2 * self.l) % self.T1 == 0


def q_twisted(k: int, tw: TwistParams, order) -> PuiseuxSeries:
    """The twisted series Q_k(mu, lambda, tau) on the 1/T exponent grid.

    Q_0 is the constant -1 for every twist.  For k >= 1 the terms are the
    constant -B_k(j/T)/k!, for j = 0 and k = 1 the n = 0 term lambda/(1 - lambda)
    of the first sum (0^0 = 1 convention), and then both geometric sums, walked
    by one loop: the first at x = num/T for num = j, j + T, ... (from T when
    j = 0) with weight x^{k-1}/(k-1)! and root lambda, the second at
    num = T - j, 2T - j, ... with weight (-1)^k x^{k-1}/(k-1)! and root
    lambda^{-1}.  Each factor root q^x / (1 - root q^x) is expanded as
    sum_{m >= 1} root^m q^{mx} below the order.

    Every term lands in one list over the grid slots below the order: each
    sum forms its powers root^m once, and each num adds weight * root^m to the
    slots m * (its slot) in one strided slice add, in the order of the terms.

    At the trivial twist (mu, lambda) = (1, 1) an even k gives Zhu's E_k,
    which `eisenstein` builds here, and an odd k raises `InvalidTwistError`.
    """
    if k < 0:
        raise ValueError("Q_k needs k >= 0")
    order = Fraction(order)
    if k == 0:
        return PuiseuxSeries.from_terms([(0, -1)], order)  # the zero series at an order <= 0
    if tw.trivial and k % 2:
        raise InvalidTwistError(f"Q_{k} at (mu, lambda) = (1, 1) needs an even k, "
                                "where Q_k is E_k (Q_1 has a pole there)")

    K = math.factorial(k - 1)
    KT = K * tw.T ** (k - 1)  # x^{k-1}/K = num^{k-1}/KT at x = num/T
    const = -bernoulli_poly(k, Fraction(tw.j, tw.T)) / math.factorial(k)
    if tw.lambda_real:
        # lambda = +-1: exact values over den = KT, so each weight is an integer;
        # lambda/(1 - lambda) = -1/2 is used only at lambda = -1, k = 1
        domain, lam, den = EXACT, (1 if tw.l == 0 else -1), KT
        lam_inv, const, lam_const = lam, const * KT, Fraction(-KT, 2)

        def weight(num, base):
            return base * num ** (k - 1)
    else:
        domain, lam = COMPLEX, cmath.exp(2j * math.pi * tw.l / tw.T1)
        lam_inv, den = 1 / lam, 1
        const, lam_const = complex(const), lam / (1 - lam) / K

        def weight(num, base):
            return complex(Fraction(num ** (k - 1), KT) * base)

    # x = num/T sits at slot num * step of the grid D; q^{mx} at m times that
    D = lcm(tw.T, order.denominator)
    step = D // tw.T
    top = math.ceil(order * D)
    acc = [const + (lam_const if tw.j == 0 and k == 1 else 0)] + [0] * (top - 1)
    for first, base, root in ((tw.j or tw.T, 1, lam), (tw.T - tw.j, (-1) ** k, lam_inv)):
        powers = [root ** m for m in range(1, -(-top // (first * step)))]
        for num in range(first, -(-top // step), tw.T):
            slot = num * step
            acc[slot::slot] = map(add, acc[slot::slot], map(weight(num, base).__mul__, powers))
    return PuiseuxSeries.from_slots(enumerate(acc), D, order, domain, den)


def euler_product(order) -> PuiseuxSeries:
    """prod_{n>=1} (1 - q^n) below `order`, exact on the integer grid.

    Built from Euler's pentagonal number theorem,
    prod (1 - q^n) = sum_{k in Z} (-1)^k q^{k(3k-1)/2}: about 2 sqrt(2N/3)
    nonzero terms below order N and no series multiplication.
    """
    order = Fraction(order)
    D = order.denominator  # integer exponents on the grid of the order
    terms = [(0, 1)]
    k = 1
    while k * (3 * k - 1) // 2 < order:
        sign = -1 if k % 2 else 1
        terms += [(k * (3 * k - 1) // 2 * D, sign), (k * (3 * k + 1) // 2 * D, sign)]
        k += 1
    return PuiseuxSeries.from_slots(terms, D, order)


def distinct_parts_product(order) -> PuiseuxSeries:
    """prod (1 + q^n) = prod (1 - q^{2n}) / prod (1 - q^n): partitions into distinct parts."""
    order = Fraction(order)
    return (euler_product(order).rescale(2) * partition_gf(order)).truncate(order)


@_memoized_by_order
def dedekind_eta(order) -> PuiseuxSeries:
    """eta(tau) = q^{1/24} prod_{n>=1} (1 - q^n), truncated at `order`;
    memoized, so a run builds each order once: an identities run reads eta
    five times at three orders, and the memo saves the other two builds
    (without it that run took about 6% longer at order 120)."""
    order = Fraction(order)
    return euler_product(order).shifted(Fraction(1, 24)).truncate(order)


def eta_half_period_series(order) -> PuiseuxSeries:
    """q-expansion of e^{-i pi/24} eta((tau+1)/2): q^{1/48} prod (1 - (-1)^n q^{n/2}).

    The pointwise principal-branch value of eta at (tau+1)/2 is this series
    times e^{i pi/24}; the series itself is exact rational on the 1/48 grid.
    Built as the Euler product in q^{1/2} under tau -> tau + 1, which
    multiplies q^{n/2} by (-1)^n and so stays exact.
    """
    order = Fraction(order)
    return (euler_product(2 * order).rescale(Fraction(1, 2)).shift_tau(1)
            .shifted(Fraction(1, 48)).truncate(order))


@_memoized_by_order
def partition_gf(order) -> PuiseuxSeries:
    """sum_{n>=0} P(n) q^n = prod (1 - q^n)^{-1}; memoized, so the sectors
    of one order share one build.  At an order <= 0 no term is kept, and it
    is the zero series, as the other builders are below their first term."""
    order = Fraction(order)
    if order <= 0:
        return PuiseuxSeries.zero(order)
    return euler_product(order).invert()


def _bilateral_sum(a: int, c: int, alternating: bool, order) -> PuiseuxSeries:
    """sum_{n in Z} (-1)^(n * alternating) q^{((2n - a)^2 - c)/8} below the order,
    for a, c in {0, 1}: the one loop behind the theta functions (c = 0) and the
    lattice sums (c = 1).  Every exponent is an integer slot of the grid
    D = lcm(2 if a == c else 8, order.denominator)."""
    order = Fraction(order)
    D = lcm(2 if a == c else 8, order.denominator)
    N = math.isqrt(max(0, math.ceil(2 * order))) + 3
    terms = [(((2 * n - a) ** 2 - c) * D // 8, -1 if (alternating and n % 2) else 1)
             for n in range(-N, N + 1)]
    return PuiseuxSeries.from_slots(terms, D, order)


def jacobi_theta(which: int, order) -> PuiseuxSeries:
    """theta_1..theta_4 as bilateral sums: exponent (2n - 1)^2/8 for theta_1 and
    theta_2, n^2/2 for theta_3 and theta_4, with the sign (-1)^n for theta_1
    and theta_4; theta_1 is identically zero."""
    if which not in (1, 2, 3, 4):
        raise ValueError("theta index must be 1, 2, 3 or 4")
    return _bilateral_sum(int(which < 3), 0, which in (1, 4), order)
