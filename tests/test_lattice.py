import math
from fractions import Fraction as F

import pytest

from qmodver import lattice
from qmodver.lattice import (_SECTORS, CENTRAL_CHARGE, PREFACTOR_EXP,
                             _partition_counts, all_sectors, character,
                             eta_theta_form, l0_inserted_trace, lattice_sum)
from qmodver.modgroup import SectorPair
from qmodver.series import PuiseuxSeries

UNTWISTED_ALT = SectorPair(2, 0, 0)   # (1, 1)
UNTWISTED = SectorPair(2, 0, 1)       # (1, sigma)
TWISTED = SectorPair(2, 1, 1)         # (sigma, sigma)
TWISTED_ALT = SectorPair(2, 1, 0)     # (sigma, 1)


def _lattice_exponent(s: int, twisted: bool) -> F:
    if twisted:
        # (s + 1/2)(s - 1/2)/2 = (4 s^2 - 1)/8
        return F(4 * s * s - 1, 8)
    return F(s * (s - 1), 2)


class TestLatticeSum:
    def test_untwisted_alternating_vanishes(self):
        assert lattice_sum(UNTWISTED_ALT, 30).is_zero()

    def test_untwisted_constant_term(self):
        assert lattice_sum(UNTWISTED, 10).coefficient_at(0) == 2

    def test_twisted_leading_term(self):
        s = lattice_sum(TWISTED, 10)
        assert s.lead() == F(-1, 8)
        # only s = 0 sits at the minimum of (4s^2 - 1)/8
        assert s.coefficient_at(F(-1, 8)) == 1
        assert s.coefficient_at(F(3, 8)) == 2

    def test_brute_force_exponent_multiplicities(self):
        s = lattice_sum(UNTWISTED, 20)
        for e, c in s.terms():
            n = sum(1 for k in range(-30, 31) if F(k * (k - 1), 2) == e)
            assert c == n


@pytest.mark.parametrize("order", [F(-1, 8), F(0), F(1, 3), F(7, 2), F(30), F(301, 3)], ids=str)
def test_lattice_sum_matches_fraction_reference(order):
    # the integer-slot build against the Fraction exponents through from_terms
    for sector in all_sectors():
        alternating, twisted, _ = _SECTORS[(sector.i, sector.j)]
        N = math.isqrt(max(0, math.ceil(2 * order))) + 3
        terms = [(_lattice_exponent(s, twisted), -1 if (alternating and s % 2) else 1)
                 for s in range(-N, N + 1)]
        ref = PuiseuxSeries.from_terms(terms, order, ramification=8 if twisted else 2)
        assert lattice_sum(sector, order).to_json_dict() == ref.to_json_dict()


class TestCharacter:
    def test_vanishing_sector(self):
        assert character(UNTWISTED_ALT, 30).series.is_zero()

    def test_leading_terms(self):
        c = character(UNTWISTED, 10).series
        assert c.lead() == F(1, 12) and c.coefficient_at(F(1, 12)) == 2
        c = character(TWISTED, 10).series
        assert c.lead() == F(-1, 24) and c.coefficient_at(F(-1, 24)) == 1

    def test_central_charge(self):
        assert character(UNTWISTED, 5).central_charge == CENTRAL_CHARGE == -2

    def test_integrality(self):
        for sector in all_sectors():
            for _, c in character(sector, 25).series.terms():
                assert c.denominator == 1

    def test_exponent_supports(self):
        for e, _ in character(UNTWISTED, 25).series.terms():
            assert (e - F(1, 12)).denominator == 1
        for sector in (TWISTED, TWISTED_ALT):
            for e, _ in character(sector, 25).series.terms():
                shifted = e + F(1, 24)
                assert (2 * shifted).denominator == 1

    def test_rejects_wrong_group(self):
        with pytest.raises(ValueError):
            character(SectorPair(3, 1, 0), 5)


class TestEtaThetaForm:
    def test_vanishing_sector(self):
        assert eta_theta_form(UNTWISTED_ALT, 30).is_zero()

    def test_leading_term(self):
        s = eta_theta_form(UNTWISTED, 10)
        assert s.lead() == F(1, 12) and s.coefficient_at(F(1, 12)) == 2

    def test_alternating_pattern(self):
        s = eta_theta_form(TWISTED_ALT, 5)
        # hand-expanded P(n) series times theta4: signs alternate in half-steps
        assert s.coefficient_at(F(-1, 24)) == 1
        assert s.coefficient_at(F(-1, 24) + F(1, 2)) == -2
        assert s.coefficient_at(F(-1, 24) + F(3, 2)) == -2
        assert s.coefficient_at(F(-1, 24) + 2) == 2 * 1 + 1 * 2  # P(2) + 2 P(0)

    def test_matches_character_all_sectors(self):
        for sector in all_sectors():
            assert character(sector, 30).series.equals(eta_theta_form(sector, 30))

    def test_is_memoized_and_divides_without_an_inverse(self, monkeypatch):
        # the character side inverts the Euler product (partition_gf); this
        # side divides theta by eta, so the two sides share no inverse
        def forbidden(*args, **kwargs):
            raise AssertionError("eta_theta_form must divide, not invert")

        expected = {sector: character(sector, 40).series for sector in all_sectors()}
        monkeypatch.setattr(PuiseuxSeries, "invert", forbidden)
        for sector in all_sectors():
            assert eta_theta_form(sector, F(40)) is eta_theta_form(sector, 40)
            assert eta_theta_form(sector, 40).equals(expected[sector])
        assert eta_theta_form.cache_info().maxsize is not None


class TestL0InsertedTrace:
    def test_vanishing_sector(self):
        assert l0_inserted_trace(UNTWISTED_ALT, 20).is_zero()

    def test_leading_term(self):
        s = l0_inserted_trace(UNTWISTED, 10)
        assert s.coefficient_at(F(1, 12)) == F(2, 12)

    def test_matches_derivative_of_character(self):
        for sector in all_sectors():
            lhs = l0_inserted_trace(sector, 20)
            rhs = character(sector, 20).series.q_d_dq()
            assert lhs.equals(rhs)


def ref_l0_inserted_trace(sector, order):
    """The termwise state sum with Fraction exponents through from_terms."""
    alternating, twisted, _ = _SECTORS[(sector.i, sector.j)]
    order = F(order)
    n_max = math.ceil(order - PREFACTOR_EXP + (F(1, 8) if twisted else 0)) + 1
    counts = _partition_counts(max(0, n_max))
    N = math.isqrt(max(0, math.ceil(2 * order))) + 3
    terms = []
    for s in range(-N, N + 1):
        es = _lattice_exponent(s, twisted)
        sign = -1 if (alternating and s % 2) else 1
        for n in range(0, n_max + 1):
            e = PREFACTOR_EXP + n + es
            if e >= order:
                break
            terms.append((e, F(sign * counts[n]) * e))
    return PuiseuxSeries.from_terms(terms, order, ramification=24)


@pytest.mark.parametrize("order", [F(1, 2), F(7, 3), F(30), F(61, 2), F(121)], ids=str)
def test_l0_inserted_trace_matches_fraction_reference(order):
    # same grid, offset, order and coefficients as the Fraction-exponent build
    for sector in all_sectors():
        got = l0_inserted_trace(sector, order)
        assert got.to_json_dict() == ref_l0_inserted_trace(sector, order).to_json_dict()


def termwise_l0_inserted_trace(sector, order):
    """The state count walked over every lattice point s in -N..N, each with
    its own sign, as l0_inserted_trace built it before the points that share
    an exponent were summed."""
    alternating, twisted, _ = _SECTORS[(sector.i, sector.j)]
    order = F(order)
    D = math.lcm(24, order.denominator)
    top = math.ceil(order * D)
    n_max = math.ceil(order - PREFACTOR_EXP + F(1, 8)) + 1
    counts = _partition_counts(max(0, n_max))
    N = math.isqrt(max(0, math.ceil(2 * order))) + 3
    terms = []
    for s in range(-N, N + 1):
        es = PREFACTOR_EXP + _lattice_exponent(s, twisted)
        k0 = es.numerator * (D // es.denominator)
        sign = -1 if (alternating and s % 2) else 1
        for n in range(0, n_max + 1):
            k = k0 + n * D
            if k >= top:
                break
            terms.append((k, sign * counts[n] * k))
    return PuiseuxSeries.from_slots(terms, D, order, den=D)


@pytest.mark.parametrize("order", [F(1, 3), F(7, 2), F(24), F(120), F(301, 3)], ids=str)
def test_l0_inserted_trace_equals_the_termwise_state_count(order):
    for sector in all_sectors():
        assert l0_inserted_trace(sector, order) == termwise_l0_inserted_trace(sector, order)


@pytest.mark.parametrize("order", [F(-1), F(0), F(1, 24), F(1, 12), F(1, 8), F(7, 12)], ids=str)
def test_l0_inserted_trace_below_and_at_its_first_states(order):
    # no lattice point below the order, or only the first few: a zero series
    # is the canonical zero, whatever the sector's lattice
    for sector in all_sectors():
        assert l0_inserted_trace(sector, order) == termwise_l0_inserted_trace(sector, order)


def test_l0_inserted_trace_counts_states_without_the_series_kernels(monkeypatch):
    def forbidden(*args):
        raise AssertionError("l0_inserted_trace must count states")

    for name in ("q_d_dq", "__mul__", "invert"):
        monkeypatch.setattr(PuiseuxSeries, name, forbidden)
    monkeypatch.setattr(lattice, "character", forbidden)
    for sector in all_sectors():
        l0_inserted_trace(sector, F(61, 2))


def test_character_is_memoized_and_equals_a_fresh_build():
    sector, order = SectorPair(2, 1, 0), F(40)
    assert character(sector, order) is character(sector, 40)
    assert character(sector, order) == character.__wrapped__(sector, order)
    assert character.cache_info().maxsize is not None


@pytest.mark.parametrize("order", [F(-5, 2), F(-3)], ids=str)
def test_character_below_a_zero_product_is_the_zero_series_at_the_order(order):
    # below -25/12 the product knows less than the order; the character keeps the order
    for sector in all_sectors():
        assert character(sector, order).series == PuiseuxSeries.zero(order)


def test_the_zero_character_keeps_its_stored_grid():
    # only a product that knows too little is replaced: the (0,0) character
    # at order 30 stays on the 1/12 grid, from offset 373
    series = character(SectorPair(2, 0, 0), 30).series
    assert series.is_zero() and (series.ramification, series.offset) == (12, 373)
