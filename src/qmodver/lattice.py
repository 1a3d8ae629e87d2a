"""Supertrace characters of the rank-1 lattice VOSA with shifted conformal
vector (central charge -2) and its sigma-twisted module: the four sectors
(1,1), (1,sigma), (sigma,sigma), (sigma,1), built both from the lattice sum
and from the eta/theta closed forms."""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .modgroup import SectorPair
from .series import PuiseuxSeries, _slot_count
from .specfun import dedekind_eta, jacobi_theta, partition_gf

CENTRAL_CHARGE = Fraction(-2)
PREFACTOR_EXP = Fraction(1, 12)  # q^{-c/24} with c = -2

# sector -> (alternating sign (-1)^s, twisted exponent grid, matching theta index)
_SECTORS = {
    (0, 0): (True, False, 1),   # (1, 1)
    (0, 1): (False, False, 2),  # (1, sigma)
    (1, 1): (False, True, 3),   # (sigma, sigma)
    (1, 0): (True, True, 4),    # (sigma, 1)
}


def _sector_key(sector: SectorPair) -> tuple[int, int]:
    if sector.n != 2:
        raise ValueError("the lattice example has sectors over Z_2 only")
    return (sector.i, sector.j)


def all_sectors() -> list[SectorPair]:
    return [SectorPair(2, i, j) for (i, j) in _SECTORS]


class CharacterData(NamedTuple):
    sector: SectorPair
    central_charge: Fraction
    series: PuiseuxSeries


def lattice_sum(sector: SectorPair, order) -> PuiseuxSeries:
    """Bilateral sum over lattice points: sign^s q^{exponent(s)} truncated at
    order, the exponent (s + 1/2)(s - 1/2)/2 = (4 s^2 - 1)/8 (twisted) or
    s(s - 1)/2, each an integer slot of the grid D."""
    alternating, twisted, _ = _SECTORS[_sector_key(sector)]
    order = Fraction(order)
    D = math.lcm(8 if twisted else 2, order.denominator)
    N = math.isqrt(max(0, math.ceil(2 * order))) + 3
    terms = [((4 * s * s - 1) * D // 8 if twisted else s * (s - 1) * D // 2,
              -1 if (alternating and s % 2) else 1) for s in range(-N, N + 1)]
    return PuiseuxSeries.from_slots(terms, D, order)


@lru_cache(maxsize=32)
def character(sector: SectorPair, order) -> CharacterData:
    """q^{1/12} * (sum P(n) q^n) * lattice_sum(sector), exact, truncated at
    order; memoized, so the rows and laws that read one character share one
    build.  A product that knows less than the order (a zero product, below
    order -25/12) gives the zero series at the order."""
    order = Fraction(order)
    inner = order + 1
    series = (partition_gf(inner) * lattice_sum(sector, inner))
    series = series.shifted(PREFACTOR_EXP).truncate(order)
    if series.order < order:
        series = PuiseuxSeries.zero(order)
    return CharacterData(sector, CENTRAL_CHARGE, series)


@lru_cache(maxsize=32)
def eta_theta_form(sector: SectorPair, order) -> PuiseuxSeries:
    """The closed form theta_i(q) / eta(tau) matched to the sector, by exact
    division; memoized, as `character` is."""
    _, _, theta_index = _SECTORS[_sector_key(sector)]
    order = Fraction(order)
    inner = order + 1
    return (jacobi_theta(theta_index, inner) / dedekind_eta(inner)).truncate(order)


@lru_cache(maxsize=1)
def _partition_counts(n_max: int) -> tuple[int, ...]:
    """p(0), ..., p(n_max) by the coin-counting DP, independent of the series
    machinery; the last table is kept, so the four sectors of one order build
    it once."""
    p = [1] + [0] * n_max
    for part in range(1, n_max + 1):
        for n in range(part, n_max + 1):
            p[n] += p[n - part]
    return tuple(p)


def l0_inserted_trace(sector: SectorPair, order) -> PuiseuxSeries:
    """Trace with an (L(0) - c/24) insertion, built termwise from the state count.

    Each oscillator/lattice state of total exponent e contributes sign * e * q^e,
    so this must agree with q d/dq of the character; the construction here never
    calls q_d_dq or any series kernel (independent cross-check).  The lattice
    points that share an exponent, s and 1 - s (untwisted) or s and -s
    (twisted), are summed first into one weight, so the (0,0) sector, where
    each pair cancels, counts no state.  Every state exponent lies on the
    sector's own lattice, 1/12 + Z (untwisted: 1/12 + s(s-1)/2 + n) or
    -1/24 + Z/2 (twisted: -1/24 + (s^2 + 2n)/2), so the signed state counts
    are summed into one list over its points, one strided slice add per
    lattice point s, and point i is then weighted by its exponent, as a
    numerator over the grid D = lcm(24, order.denominator).

    The sign and the grid are read from the sector pair (i, j) by the paper's
    rule, not from the sector table that `lattice_sum` reads, so the two sides
    of the l0 rows share no flag: the module is twisted when g = sigma^i is
    sigma, and h sigma = sigma^(j + 1) acts by (-1)^s on e^{s alpha} when j = 0.
    """
    i, j = _sector_key(sector)
    twisted, alternating = i == 1, j == 0
    order = Fraction(order)
    D = math.lcm(24, order.denominator)
    # the first exponent and the step of the sector's lattice, in slots of the grid D
    first, step = (-D // 24, D // 2) if twisted else (D // 12, D)
    m = _slot_count(order, D, first, step)
    # the lowest lattice exponent is -1/8 (twisted) or 0: one bound serves every sector
    n_max = math.ceil(order - PREFACTOR_EXP + Fraction(1, 8)) + 1
    counts = _partition_counts(max(0, n_max))
    N = math.isqrt(max(0, math.ceil(2 * order))) + 3

    def sign(s):
        return -1 if (alternating and s % 2) else 1

    # one representative s >= 0 per exponent, with the summed sign of its points;
    # its state with n oscillator quanta sits at point i0 + n * stride
    if twisted:
        weights = [(0, 1)] + [(s, 2 * sign(s)) for s in range(1, N + 1)]
    else:
        weights = [(s, sign(s) + sign(1 - s)) for s in range(1, N + 1)]
    stride = 2 if twisted else 1
    acc = [0] * m
    for s, weight in weights:
        i0 = s * s if twisted else s * (s - 1) // 2
        if not weight or i0 >= m:
            continue
        hi = min(n_max + 1, -((i0 - m) // stride))  # the n with i0 + n*stride below m
        points = slice(i0, i0 + hi * stride, stride)
        acc[points] = [a + weight * c for a, c in zip(acc[points], counts)]
    if not any(acc):
        return PuiseuxSeries.zero(order)
    vals = [a * (first + i * step) for i, a in enumerate(acc)]
    return PuiseuxSeries._from_lattice(D, first, step, vals, order, den=D)
