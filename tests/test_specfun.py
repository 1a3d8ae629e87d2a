import cmath
import json
import math
from fractions import Fraction as F

import pytest

from qmodver.series import COMPLEX, EXACT, PuiseuxSeries
from qmodver.specfun import (InvalidTwistError, TwistParams, bernoulli_number,
                             bernoulli_poly, dedekind_eta, distinct_parts_product,
                             divisor_sigma, eisenstein, eta_half_period_series,
                             euler_product, jacobi_theta, partition_gf, q_twisted)


def brute_partitions(n):
    """Enumerate partitions of n with parts <= m recursively."""
    def count(n, m):
        if n == 0:
            return 1
        return sum(count(n - k, k) for k in range(1, min(n, m) + 1))
    return count(n, n)


def taylor_bernoulli_poly(k, x):
    """Expand t e^{tx} / (e^t - 1) with exact truncated Taylor series."""
    N = k + 2
    num = [F(x) ** r / math.factorial(r) for r in range(N)]       # e^{tx}
    den = [F(1, math.factorial(r + 1)) for r in range(N)]         # (e^t - 1)/t
    quot = []
    for r in range(N):
        c = num[r] - sum(den[r - i] * quot[i] for i in range(r))
        quot.append(c / den[0])
    return quot[k] * math.factorial(k)


class TestBernoulli:
    def test_constant(self):
        assert bernoulli_poly(0, F(17, 3)) == 1

    def test_b1_at_zero(self):
        assert bernoulli_poly(1, F(0)) == taylor_bernoulli_poly(1, F(0)) == F(-1, 2)

    def test_b2_at_half(self):
        assert bernoulli_poly(2, F(1, 2)) == taylor_bernoulli_poly(2, F(1, 2)) == F(-1, 12)

    def test_against_generating_function(self):
        for k in range(8):
            for x in (F(0), F(1, 2), F(1, 3), F(2)):
                assert bernoulli_poly(k, x) == taylor_bernoulli_poly(k, x)

    def test_recurrence_closure(self):
        # every term, odd ones too, so the B_i = 0 shortcut for odd i > 1 is checked
        for k in range(1, 60):
            s = sum(math.comb(k + 1, i) * bernoulli_number(i) for i in range(k + 1))
            assert s == 0


class TestDivisorSigma:
    def test_small_values(self):
        assert divisor_sigma(1, 1) == 1
        assert divisor_sigma(1, 6) == 12
        assert divisor_sigma(3, 2) == 9

    def test_brute_force(self):
        for n in range(1, 40):
            for k in (0, 1, 3):
                assert divisor_sigma(k, n) == sum(d ** k for d in range(1, n + 1) if n % d == 0)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            divisor_sigma(1, 0)


class TestEisenstein:
    def test_constant_terms(self):
        assert eisenstein(2, 5).coefficient_at(0) == F(-1, 12)
        assert eisenstein(4, 5).coefficient_at(0) == F(1, 720)

    def test_e2_linear_coefficient(self):
        assert eisenstein(2, 5).coefficient_at(1) == 2

    def test_integrality_pattern(self):
        for k in (2, 4, 6):
            ek = eisenstein(k, 12)
            for n in range(1, 12):
                assert ek.coefficient_at(n) == F(2 * divisor_sigma(k - 1, n),
                                                 math.factorial(k - 1))

    def test_rejects_odd_and_small(self):
        with pytest.raises(ValueError):
            eisenstein(3, 5)
        with pytest.raises(ValueError):
            eisenstein(0, 5)


class TestQTwisted:
    def test_q0_is_minus_one(self):
        for tw in (TwistParams(0, 1, 0, 1), TwistParams(1, 2, 1, 2)):
            s = q_twisted(0, tw, 10)
            assert s.equals(PuiseuxSeries.monomial(F(-1), 0, 10))

    @pytest.mark.parametrize("order", [F(0), F(-1)], ids=str)
    def test_q0_below_its_term_is_the_zero_series(self, order):
        for tw in (TwistParams(0, 1, 0, 1), TwistParams(0, 1, 1, 2)):
            assert q_twisted(0, tw, order) == PuiseuxSeries.zero(order)

    def test_invalid_twist(self):
        with pytest.raises(InvalidTwistError):
            q_twisted(1, TwistParams(0, 1, 0, 1), 10)

    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_odd_k_at_the_trivial_twist_is_refused(self, k):
        with pytest.raises(InvalidTwistError, match=f"Q_{k} at .* needs an even k"):
            q_twisted(k, TwistParams(0, 1, 0, 1), 10)

    def test_q1_lambda_minus_one_constant(self):
        s = q_twisted(1, TwistParams(0, 1, 1, 2), 10)
        assert s.coefficient_at(0) == 0

    def test_q2_low_coefficients_against_direct_expansion(self):
        # independent oracle: expand both sums of the defining formula with
        # three geometric terms each, by hand, on the 1/2 grid
        order = F(3, 2)  # three geometric terms cover every exponent below 3/2
        acc = {F(0): -bernoulli_poly(2, F(1, 2)) / 2}
        for n in range(4):          # first sum, x = n + 1/2
            x = n + F(1, 2)
            for m in range(1, 4):
                if m * x < order:
                    acc[m * x] = acc.get(m * x, F(0)) + x
        for n in range(1, 4):       # second sum, x = n - 1/2, (-1)^k = +1
            x = n - F(1, 2)
            for m in range(1, 4):
                if m * x < order:
                    acc[m * x] = acc.get(m * x, F(0)) + x
        s = q_twisted(2, TwistParams(1, 2, 0, 1), order)
        assert acc[F(0)] == F(1, 24) and s.coefficient_at(0) == F(1, 24)
        assert acc[F(1, 2)] == 1 and s.coefficient_at(F(1, 2)) == 1
        for e, c in acc.items():
            assert s.coefficient_at(e) == c

    def test_q1_mu_minus_one_cancels(self):
        assert q_twisted(1, TwistParams(1, 2, 0, 1), 20).is_zero()

    def test_periodicity(self):
        tw = TwistParams(1, 2, 1, 2)
        for k in (1, 2, 3):
            s = q_twisted(k, tw, 10)
            assert s.shift_tau(2).equals(s)

    def test_complex_domain_for_general_roots(self):
        s = q_twisted(1, TwistParams(0, 1, 1, 3), 5)
        assert s.domain == COMPLEX


def ref_q_twisted(k, tw, order):
    """Q_k built from Fraction exponents through from_terms, term by term in
    the same order as q_twisted (so complex twists compare bit for bit)."""
    order = F(order)
    if k == 0:
        return PuiseuxSeries.monomial(F(-1), F(0), order)
    exact = tw.lambda_real
    cast = (lambda x: x) if exact else complex
    lam = (F(1) if tw.l == 0 else F(-1)) if exact else cmath.exp(2j * math.pi * tw.l / tw.T1)
    K = math.factorial(k - 1)
    jT = F(tw.j, tw.T)
    terms = [(F(0), cast(-bernoulli_poly(k, jT) / math.factorial(k)))]

    def expand(x, base, powfun):
        w = cast(F(x ** (k - 1), K) * base)
        m = 1
        while m * x < order:
            terms.append((m * x, w * powfun(m)))
            m += 1

    if tw.j == 0:
        if k == 1:
            terms.append((F(0), lam / (1 - lam) / K))
        n = 1
    else:
        n = 0
    while n + jT < order:
        expand(n + jT, 1, lambda m: lam ** m)
        n += 1
    lam_inv = 1 / lam
    n = 1
    while n - jT < order:
        expand(n - jT, (-1) ** k, lambda m: lam_inv ** m)
        n += 1
    return PuiseuxSeries.from_terms(terms, order, EXACT if exact else COMPLEX,
                                    ramification=tw.T)


TWISTS = [TwistParams(j, T, l, T1) for T in (1, 2, 3) for T1 in (1, 2, 3)
          for j in range(T) for l in range(T1)]
# lambda of order 4 or 6 and j >= 2, where the first sum starts at num = j
WIDE_TWISTS = [TwistParams(j, T, l, T1) for T in (4, 6) for T1 in (4, 6)
               for j in range(T) for l in range(T1)]


@pytest.mark.parametrize("order", [F(1, 2), F(7, 3), F(30), F(61, 2), F(121)], ids=str)
@pytest.mark.parametrize("k", range(5))
def test_q_twisted_matches_fraction_reference(k, order):
    # json text, so even the sign of a zero float component must agree
    for tw in TWISTS + (WIDE_TWISTS if order < 30 else []):
        if k % 2 and tw.trivial:  # Q_1 has a pole at (1, 1); odd k is refused there
            continue
        got = json.dumps(q_twisted(k, tw, order).to_json_dict())
        assert got == json.dumps(ref_q_twisted(k, tw, order).to_json_dict()), tw


class TestEta:
    def test_leading_term(self):
        eta = dedekind_eta(10)
        assert eta.lead() == F(1, 24)
        assert eta.coefficient_at(F(1, 24)) == 1

    def test_pentagonal_coefficients(self):
        eta = dedekind_eta(10)
        assert eta.coefficient_at(1 + F(1, 24)) == -1
        assert eta.coefficient_at(5 + F(1, 24)) == 1

    def test_matches_brute_force_product(self):
        # multiply out prod(1 - q^n) with a plain dict, no series machinery
        N = 12
        poly = {0: 1}
        for n in range(1, N + 1):
            poly = {e: c for e, c in poly.items() if e <= N}
            new = dict(poly)
            for e, c in poly.items():
                if e + n <= N:
                    new[e + n] = new.get(e + n, 0) - c
            poly = new
        eta = dedekind_eta(N)
        for e in range(N):
            assert eta.coefficient_at(e + F(1, 24)) == poly.get(e, 0)

    def test_is_unit(self):
        eta = dedekind_eta(31)
        assert (eta * eta.invert()).truncate(30).equals(PuiseuxSeries.one(30))


class TestTheta:
    def test_theta1_identically_zero(self):
        assert jacobi_theta(1, 30).is_zero()

    def test_theta3_low_terms(self):
        t3 = jacobi_theta(3, 10)
        assert t3.coefficient_at(0) == 1
        assert t3.coefficient_at(F(1, 2)) == 2

    def test_theta2_leading(self):
        t2 = jacobi_theta(2, 10)
        assert t2.lead() == F(1, 8)
        assert t2.coefficient_at(F(1, 8)) == 2

    def test_theta_parity_supports(self):
        for e, _ in jacobi_theta(2, 20).terms():
            assert (e - F(1, 8)).denominator == 1
        for which in (3, 4):
            for e, _ in jacobi_theta(which, 20).terms():
                assert (2 * e).denominator == 1 and math.isqrt(int(2 * e)) ** 2 == 2 * e

    def test_theta3_plus_theta4_cancellation(self):
        s = jacobi_theta(3, 20) + jacobi_theta(4, 20)
        for e, _ in s.terms():
            assert e.denominator == 1

    def test_shift_tau_theta3_gives_theta4(self):
        assert jacobi_theta(3, 30).shift_tau(1).equals(jacobi_theta(4, 30))


# -- the product loops the closed forms replaced, kept as references ---------

def ref_euler_product(order):
    """prod_{n < order} (1 - q^n), one series multiplication per factor."""
    order = F(order)
    out = PuiseuxSeries.one(order)
    n = 1
    while n < order:
        out = out * PuiseuxSeries.from_terms([(F(0), F(1)), (F(n), F(-1))], order)
        n += 1
    return out


def ref_distinct_parts_product(order):
    order = F(order)
    out = PuiseuxSeries.one(order)
    n = 1
    while n < order:
        out = out * PuiseuxSeries.from_terms([(F(0), F(1)), (F(n), F(1))], order)
        n += 1
    return out


def ref_eta_half_period_series(order):
    """q^{1/48} prod (1 - (-1)^n q^{n/2}) multiplied out factor by factor."""
    order = F(order)
    out = PuiseuxSeries.one(order)
    n = 1
    while F(n, 2) < order:
        sign = F(1) if n % 2 else F(-1)
        out = out * PuiseuxSeries.from_terms([(F(0), F(1)), (F(n, 2), sign)], order)
        n += 1
    return out.shifted(F(1, 48)).truncate(order)


CLOSED_FORM_ORDERS = [F(1, 48), F(1, 2), F(1), F(7, 3), F(2), F(5), F(61, 2),
                      F(30), F(61), F(121)]
CLOSED_FORMS = {
    "euler_product": (euler_product, ref_euler_product),
    "dedekind_eta": (dedekind_eta,
                     lambda o: ref_euler_product(o).shifted(F(1, 24)).truncate(o)),
    "partition_gf": (partition_gf, lambda o: ref_euler_product(o).invert()),
    "distinct_parts_product": (distinct_parts_product, ref_distinct_parts_product),
    "eta_half_period_series": (eta_half_period_series, ref_eta_half_period_series),
}


@pytest.mark.parametrize("order", CLOSED_FORM_ORDERS, ids=str)
@pytest.mark.parametrize("name", sorted(CLOSED_FORMS))
def test_closed_form_matches_product_loop(name, order):
    # same coefficients, grid (ramification, offset) and order as the loop
    closed, ref = CLOSED_FORMS[name]
    assert closed(order).to_json_dict() == ref(order).to_json_dict()


class TestPartitionGf:
    @pytest.mark.parametrize("order", [F(0), F(-1), F(-1, 2)], ids=str)
    def test_zero_series_at_nonpositive_orders(self, order):
        # as eta, theta, E_k and Q_k are below their first term
        assert partition_gf(order) == PuiseuxSeries.zero(order) == euler_product(order)

    def test_golden_values(self):
        pg = partition_gf(201)
        assert pg.coefficient_at(100) == 190569292
        assert pg.coefficient_at(200) == 3972999029388

    def test_low_coefficients(self):
        pg = partition_gf(12)
        assert pg.coefficient_at(0) == 1
        assert pg.coefficient_at(5) == brute_partitions(5) == 7
        assert pg.coefficient_at(10) == brute_partitions(10) == 42

    def test_distinct_parts_product(self):
        dp = distinct_parts_product(8)
        # partitions into distinct parts: 1, 1, 1, 2, 2, 3, 4, 5
        for n, c in enumerate([1, 1, 1, 2, 2, 3, 4, 5]):
            assert dp.coefficient_at(n) == c


def test_eta_truncation_stability():
    v60 = dedekind_eta(60).to_complex().evaluate(2j)
    v120 = dedekind_eta(120).to_complex().evaluate(2j)
    assert abs(v60.value - v120.value) < 1e-12
    assert abs(v60.value - v120.value) <= v60.tail_estimate + 1e-15


def test_eta_half_period_series_matches_pointwise_value():
    import cmath
    half = eta_half_period_series(60).to_complex()
    eta = dedekind_eta(60).to_complex()
    tau = 2j
    lhs = cmath.exp(1j * math.pi / 24) * half.evaluate(tau).value
    rhs = eta.evaluate((tau + 1) / 2).value
    assert abs(lhs - rhs) < 1e-12


def fraction_bernoulli_numbers(k_max):
    """B_0..B_k_max by the recurrence sum_{i<=m} C(m+1, i) B_i = 0 in Fractions."""
    b = []
    for k in range(k_max + 1):
        b.append(F(1) if k == 0 else -sum(math.comb(k + 1, i) * b[i] for i in range(k)) / (k + 1))
    return b


def test_bernoulli_numbers_match_the_fraction_recurrence():
    assert [bernoulli_number(k) for k in range(201)] == fraction_bernoulli_numbers(200)
    assert all(type(bernoulli_number(k)) is F for k in range(201))


@pytest.mark.parametrize("k", [2, 4, 6, 8, 12, 30])
@pytest.mark.parametrize("order", [F(0), F(1, 3), F(1), F(41, 3), F(60)], ids=str)
def test_eisenstein_sieve_matches_divisor_sigma(k, order):
    ek = eisenstein(k, order)
    terms = [(F(0), -bernoulli_number(k) / math.factorial(k))]
    terms += [(F(n), F(2 * divisor_sigma(k - 1, n), math.factorial(k - 1)))
              for n in range(1, math.ceil(order))]
    assert ek == PuiseuxSeries.from_terms(terms, order)


TRIVIAL_TWIST_ORDERS = [F(-3), F(-1, 2), F(0), F(1, 3), F(1), F(7, 2), F(30), F(61, 3),
                        F(60), F(120), F(121), F(301, 3)]


@pytest.mark.parametrize("k", [*range(2, 41, 2), 100, 400])
def test_eisenstein_is_q_twisted_at_the_trivial_twist(k):
    # Zhu's E_k is Q_k at (mu, lambda) = (1, 1); one stored form, so == and JSON agree
    for order in TRIVIAL_TWIST_ORDERS if k <= 40 else [o for o in TRIVIAL_TWIST_ORDERS
                                                        if o <= 30]:
        ek, qk = eisenstein(k, order), q_twisted(k, TwistParams(0, 1, 0, 1), order)
        assert ek == qk, (k, order)
        assert json.dumps(ek.to_json_dict()) == json.dumps(qk.to_json_dict()), (k, order)


@pytest.mark.parametrize("builder", [partition_gf, dedekind_eta], ids=lambda f: f.__name__)
def test_memoized_builders_equal_a_fresh_build(builder):
    for order in (F(7, 2), 30, F(30)):
        assert builder(order) == builder.__wrapped__(order)
    assert builder(F(30)) is builder(F(60, 2))
    assert builder.cache_info().maxsize is not None


@pytest.mark.parametrize("builder", [partition_gf, dedekind_eta], ids=lambda f: f.__name__)
def test_an_int_order_and_the_equal_fraction_share_one_memo_entry(builder):
    first = builder(30)
    assert builder(F(30)) is first
    assert builder(F(60, 2)) is first
    info = builder.cache_info()
    assert (info.hits, info.misses, info.currsize, info.maxsize) == (2, 1, 1, 8)
