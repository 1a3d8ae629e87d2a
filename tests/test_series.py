import cmath
import copy
import functools
import json
import math
import pickle
from fractions import Fraction as F
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmodver import cli, lattice, series, specfun
from qmodver.modgroup import SectorPair
from qmodver.series import (COMPLEX, EXACT, BeyondTruncationError,
                            DomainPromotionRequired, EvalResult, EvaluationError,
                            InsufficientConvergence, NonInvertibleError,
                            NotInUpperHalfPlane, PuiseuxSeries, SeriesError,
                            WrongDomainError)
from qmodver.verify import run_suite


def geom(order=10):
    # 1 + q + q^2 + ...
    return PuiseuxSeries.from_terms([(F(n), F(1)) for n in range(order)], order)


# every arithmetic and comparison kernel, applied to a complex operand z
EXACT_ONLY = {
    "add": lambda z: z + geom(5),
    "radd": lambda z: geom(5) + z,
    "sub": lambda z: geom(5) - z,
    "neg": lambda z: -z,
    "mul": lambda z: z * geom(5),
    "rmul": lambda z: geom(5) * z,
    "pow": lambda z: z ** 0,
    "scale": lambda z: z.scale(2),
    "invert": lambda z: z.invert(),
    "q_d_dq": lambda z: z.q_d_dq(),
    "shift_tau": lambda z: z.shift_tau(1),
    "shift_tau-0": lambda z: z.shift_tau(0),
    "first_mismatch": lambda z: geom(5).first_mismatch(z),
    "equals": lambda z: z.equals(z),
}


class TestConstruction:
    def test_monomial_fractional(self):
        s = PuiseuxSeries.monomial(F(1), F(1, 24), 5)
        assert s.ramification == 24
        assert s.coefficient_at(F(1, 24)) == 1
        assert s.coefficient_at(F(2, 24)) == 0

    def test_monomial_zero_coeff(self):
        s = PuiseuxSeries.monomial(F(0), F(0), 5)
        assert s.is_zero() and s.order == 5

    def test_monomial_beyond_order_rejected(self):
        with pytest.raises(SeriesError):
            PuiseuxSeries.monomial(F(1), F(7), 5)

    def test_monomial_doubled_leading_term(self):
        # leading term of the (1,sigma) lattice sum: two lattice points at exponent 0
        s = PuiseuxSeries.monomial(F(2), F(1, 12), 1)
        assert s.coefficient_at(F(1, 12)) == 2

    def test_coefficient_beyond_truncation(self):
        s = geom(5)
        with pytest.raises(BeyondTruncationError):
            s.coefficient_at(F(5))

    def test_coefficient_off_grid(self):
        assert geom(5).coefficient_at(F(1, 2)) == 0


class TestArithmetic:
    def test_add_cancels(self):
        a = PuiseuxSeries.from_terms([(F(0), F(1)), (F(1), F(1))], 5)
        b = PuiseuxSeries.from_terms([(F(0), F(1)), (F(1), F(-1))], 5)
        assert (a + b).equals(PuiseuxSeries.monomial(F(2), F(0), 5))

    def test_add_identity(self):
        x = geom(8)
        assert (x + PuiseuxSeries.zero(8)).equals(x)

    @pytest.mark.parametrize("op", sorted(EXACT_ONLY))
    def test_exact_only_op_rejects_complex(self, op):
        with pytest.raises(WrongDomainError, match="evaluation-only"):
            EXACT_ONLY[op](geom(5).to_complex())

    def test_mul_telescoping(self):
        one_minus_q = PuiseuxSeries.from_terms([(F(0), F(1)), (F(1), F(-1))], 10)
        assert (one_minus_q * geom(10)).equals(PuiseuxSeries.one(10))

    def test_mul_exponent_addition(self):
        a = PuiseuxSeries.monomial(F(1), F(1, 24), 5)
        b = PuiseuxSeries.monomial(F(1), F(1, 8), 5)
        assert (a * b).coefficient_at(F(1, 6)) == 1

    def test_invert_monomial_factor(self):
        u = PuiseuxSeries.from_terms([(F(1, 24), F(2)), (F(25, 24), F(2))], 10)
        inv = u.invert()
        assert inv.lead() == F(-1, 24)
        assert inv.coefficient_at(F(-1, 24)) == F(1, 2)
        assert (u * inv).equals(PuiseuxSeries.one(5))

    def test_invert_one(self):
        assert PuiseuxSeries.one(10).invert().equals(PuiseuxSeries.one(10))

    def test_invert_zero_lead(self):
        with pytest.raises(NonInvertibleError):
            PuiseuxSeries.zero(5).invert()

    def test_q_d_dq(self):
        s = PuiseuxSeries.monomial(F(1), F(1, 12), 5)
        assert s.q_d_dq().coefficient_at(F(1, 12)) == F(1, 12)
        assert PuiseuxSeries.one(5).q_d_dq().is_zero()

    def test_rescale_identity_and_inverse_pair(self):
        x = geom(9)
        assert x.rescale(1).equals(x)
        assert x.rescale(2).rescale(F(1, 2)).equals(x)

    def test_rescale_rejects_nonpositive(self):
        with pytest.raises(SeriesError):
            geom(5).rescale(F(-1))

    def test_shift_tau_half_integer_grid(self):
        s = PuiseuxSeries.monomial(F(1), F(1, 2), 5)
        assert s.shift_tau(1).coefficient_at(F(1, 2)) == -1
        assert s.shift_tau(0).equals(s)

    def test_shift_tau_promotion_required(self):
        s = PuiseuxSeries.monomial(F(1), F(1, 24), 5)
        with pytest.raises(DomainPromotionRequired, match=r"e\^\(2 pi i 1/24\) is irrational"):
            s.shift_tau(1)

    def test_invert_huge_lead_stays_exact(self):
        # 10**400 has no float; no exact kernel may convert a coefficient
        u = PuiseuxSeries.from_terms([(0, 10 ** 400), (F(1, 2), F(1, 3))], 3)
        inv = u.invert()
        assert inv.coefficient_at(0) == F(1, 10 ** 400)
        assert inv.coefficient_at(F(1, 2)) == F(-1, 3 * 10 ** 800)
        assert u.support_step() == F(1, 2)
        assert (u * inv).equals(PuiseuxSeries.one(inv.order))


class TestEvaluate:
    def test_one_plus_q_at_i(self):
        s = PuiseuxSeries.from_terms([(F(0), F(1)), (F(1), F(1))], 5)
        val, tail, _ = s.evaluate(1j)
        assert abs(val - (1 + math.exp(-2 * math.pi))) < 1e-12

    def test_zero_series(self):
        val, tail, _ = PuiseuxSeries.zero(5).evaluate(2j)
        assert val == 0 and tail == 0

    def test_lower_half_plane_rejected(self):
        with pytest.raises(NotInUpperHalfPlane):
            geom(5).evaluate(-1j)

    def test_insufficient_convergence(self):
        s = PuiseuxSeries.monomial(F(1), F(1, 24), 2)  # only one term: step 1/24
        with pytest.raises(InsufficientConvergence):
            s.evaluate(0.01j)


class TestSerialization:
    def test_round_trip_exact(self):
        s = PuiseuxSeries.from_terms([(F(-1, 24), F(1)), (F(1, 2), F(-3, 7))], F(7, 2))
        doc = json.loads(json.dumps(s.to_json_dict()))
        assert PuiseuxSeries.from_json_dict(doc).equals(s)

    def test_round_trip_complex(self):
        s = PuiseuxSeries.from_terms([(F(0), 1 + 2j)], 3, domain=COMPLEX)
        doc = s.to_json_dict()
        t = PuiseuxSeries.from_json_dict(doc)
        assert t.domain == COMPLEX and t.coefficient_at(0) == 1 + 2j

    def test_zero_coefficients_omitted(self):
        s = PuiseuxSeries.from_terms([(F(0), F(1)), (F(3), F(1))], 5)
        assert len(s.to_json_dict()["terms"]) == 2


# -- randomized properties --------------------------------------------------

coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=6)


@st.composite
def exact_series(draw, order=F(20)):
    D = draw(st.sampled_from([1, 2, 3, 4, 6]))
    n = draw(st.integers(min_value=0, max_value=8))
    exps = draw(st.lists(st.integers(min_value=-4, max_value=18), min_size=n, max_size=n))
    cs = draw(st.lists(coeffs, min_size=n, max_size=n))
    return PuiseuxSeries.from_terms([(F(e, D), c) for e, c in zip(exps, cs)], order)


@settings(max_examples=60, deadline=None)
@given(exact_series(), exact_series(), exact_series())
def test_ring_axioms(a, b, c):
    assert (a * (b + c)).equals(a * b + a * c)
    assert (a * b).equals(b * a)
    assert ((a + b) + c).equals(a + (b + c))


@settings(max_examples=60, deadline=None)
@given(exact_series(), exact_series())
def test_derivation_rule(a, b):
    assert (a * b).q_d_dq().equals(a.q_d_dq() * b + a * b.q_d_dq())


@settings(max_examples=60, deadline=None)
@given(exact_series())
def test_invert_two_sided(a):
    unit = a + PuiseuxSeries.monomial(F(7), F(-5), a.order)  # force a nonzero lead
    inv = unit.invert()
    assert (unit * inv).equals(PuiseuxSeries.one(inv.order))
    assert (inv * unit).equals(PuiseuxSeries.one(inv.order))


@settings(max_examples=60, deadline=None)
@given(exact_series(), exact_series(), st.sampled_from([F(2), F(3), F(1, 2), F(3, 2)]))
def test_rescale_is_ring_hom(a, b, r):
    assert (a + b).rescale(r).equals(a.rescale(r) + b.rescale(r))
    assert (a * b).rescale(r).equals(a.rescale(r) * b.rescale(r))


@settings(max_examples=60, deadline=None)
@given(exact_series(), exact_series())
def test_exponent_grid_closure(a, b):
    for out in (a + b, a * b):
        for e, _ in out.terms():
            assert (e * out.ramification).denominator == 1


# -- the slot kernels against plain references ------------------------------

def dense_invert(u):
    """The inversion recurrence walked over every slot of the grid."""
    i0 = next(i for i, c in enumerate(u.coeffs) if c != 0)
    lead, a0 = u.exponent(i0), u.coeffs[i0]
    order = u.order - 2 * lead
    off = -(u.offset + i0)
    n = max(0, math.ceil(order * u.ramification - off))
    b = [F(0)] * n
    b[0] = F(1) / a0
    for m in range(1, n):
        b[m] = -sum((u.coeffs[i0 + k] * b[m - k] for k in range(1, m + 1)
                     if i0 + k < len(u.coeffs)), F(0)) / a0
    return PuiseuxSeries(u.ramification, off, tuple(b), order, EXACT)


def dict_mul(a, b):
    """Product through a Fraction-keyed dict and from_terms."""
    def lead_or_order(s):
        return s.order if s.lead() is None else s.lead()

    order = min(a.order + lead_or_order(b), b.order + lead_or_order(a))
    acc = {}
    for ea, ca in a.terms():
        for eb, cb in b.terms():
            if ea + eb < order:
                acc[ea + eb] = acc.get(ea + eb, F(0)) + ca * cb
    return PuiseuxSeries.from_terms(acc.items(), order, EXACT,
                                    math.lcm(a.ramification, b.ramification))


def dict_add(a, b):
    order = min(a.order, b.order)
    terms = [(e, c) for s in (a, b) for e, c in s.terms() if e < order]
    return PuiseuxSeries.from_terms(terms, order, EXACT,
                                    math.lcm(a.ramification, b.ramification))


@st.composite
def lattice_unit(draw):
    """A series on the 1/D grid whose nonzero tail lies on multiples of g slots."""
    D = draw(st.sampled_from([1, 2, 24]))
    g = draw(st.integers(min_value=1, max_value=6))
    off = draw(st.integers(min_value=-2 * D, max_value=D))
    # above both the lead and twice the lead, so the inverse keeps a term
    order = F(max(off, 2 * off) + draw(st.integers(min_value=1, max_value=5 * D)), D) \
        + draw(st.sampled_from([F(0), F(1, 3)]))
    steps = draw(st.lists(st.integers(min_value=1, max_value=12), max_size=5, unique=True))
    lead = draw(coeffs.filter(lambda c: c != 0))
    terms = [(F(off, D), lead)] + [(F(off + g * j, D), draw(coeffs)) for j in steps]
    return PuiseuxSeries.from_terms(terms, order, ramification=D)


@settings(max_examples=80, deadline=None)
@given(lattice_unit())
def test_invert_on_support_lattice(u):
    inv = u.invert()
    assert (u * inv).equals(PuiseuxSeries.one(inv.order))
    assert inv.to_json_dict() == dense_invert(u).to_json_dict()


@st.composite
def grid_series(draw):
    D = draw(st.sampled_from([1, 3, 8, 24]))
    order = draw(st.sampled_from([F(4), F(7, 3), F(41, 8), F(13, 2)]))
    exps = draw(st.lists(st.integers(min_value=-2 * D, max_value=int(order * D) - 1),
                         max_size=8))
    s = PuiseuxSeries.from_terms([(F(e, D), draw(coeffs)) for e in exps], order,
                                 ramification=D)
    # truncation can leave an order whose denominator is off the grid
    return s.truncate(order - draw(st.sampled_from([F(0), F(1, 5)])))


@settings(max_examples=80, deadline=None)
@given(grid_series(), grid_series())
def test_slot_kernels_match_dict_reference(a, b):
    # pins the grid, offset and order of the result, not only its coefficients
    assert (a * b).to_json_dict() == dict_mul(a, b).to_json_dict()
    assert (a + b).to_json_dict() == dict_add(a, b).to_json_dict()
    assert (a - a).to_json_dict() == PuiseuxSeries.zero(a.order).to_json_dict()


# -- canonical exact coefficients -------------------------------------------

def is_canonical(s):
    """The stored form is integer numerators over one den >= 1 with
    gcd(den, *vals) = 1, so den = 1 exactly when every coefficient is an
    integer, and every reader shows vals[j] / den as an int when integral
    and a Fraction otherwise."""
    if s.domain != EXACT or not all(type(v) is int for v in (s.den, *s.vals)):
        return False
    ref = {s.exponent(j * s.g): F(v, s.den) for j, v in enumerate(s.vals) if v}
    from_json = {s.exponent(t["i"]): F(t["coeff"]["num"], t["coeff"]["den"])
                 for t in s.to_json_dict()["terms"]}
    return (s.den >= 1 and math.gcd(s.den, *s.vals) == 1
            and (s.den == 1) == all(c.denominator == 1 for c in ref.values())
            and all(type(c) is (int if c.denominator == 1 else F) for c in s.coeffs)
            and sum(1 for c in s.coeffs if c) == len(ref)
            and dict(s.terms()) == ref == from_json
            and all(type(s.coefficient_at(e)) is type(c) and s.coefficient_at(e) == c
                    for e, c in s.terms()))


def values(s):
    """Nonzero coefficients keyed by Fraction exponent, as Fractions."""
    return {e: F(c) for e, c in s.terms()}


@settings(max_examples=80, deadline=None)
@given(grid_series(), grid_series(), lattice_unit(),
       st.sampled_from([F(2), F(-3), F(1, 2), F(-4, 3)]),
       st.sampled_from([F(2), F(3), F(1, 2), F(3, 2)]),
       st.sampled_from([F(0), F(1, 24), F(-5, 6), F(2)]))
def test_outputs_are_canonical_and_match_fraction_references(a, b, u, c, r, delta):
    outputs = {
        "add": (a + b, dict_add(a, b)),
        "mul": (a * b, dict_mul(a, b)),
        "invert": (u.invert(), dense_invert(u)),
    }
    for name, (got, ref) in outputs.items():
        assert is_canonical(got), name
        assert got.to_json_dict() == ref.to_json_dict(), name
    o = a.order - F(1, 3)
    half = F(a.ramification, 2)  # e * half is a multiple of 1/2, so the phases are +-1
    copies = {
        "neg": (-a, {e: -x for e, x in values(a).items()}, a.order),
        "scale": (a.scale(c), {e: x * c for e, x in values(a).items()}, a.order),
        "shift_tau": (a.shift_tau(half),
                      {e: x if (e * half).denominator == 1 else -x for e, x in values(a).items()},
                      a.order),
        "q_d_dq": (a.q_d_dq(), {e: x * e for e, x in values(a).items() if e != 0}, a.order),
        "shifted": (a.shifted(delta), {e + delta: x for e, x in values(a).items()},
                    a.order + delta),
        "rescale": (a.rescale(r), {r * e: x for e, x in values(a).items()}, r * a.order),
        "truncate": (a.truncate(o), {e: x for e, x in values(a).items() if e < o}, o),
    }
    for name, (got, ref, order) in copies.items():
        assert is_canonical(got), name
        assert values(got) == ref and got.order == order, name
    for s in (a, u):
        back = PuiseuxSeries.from_json_dict(json.loads(json.dumps(s.to_json_dict())))
        assert is_canonical(back) and back.to_json_dict() == s.to_json_dict()
    mismatch = a.first_mismatch(a.scale(c))
    if values(a):
        e, x = next(iter(values(a).items()))
        assert mismatch == (e, x, x * c)
        assert [type(v) for v in mismatch[1:]] == [int if v.denominator == 1 else F
                                                   for v in (x, x * c)]
    else:
        assert mismatch is None


REAL_TWISTS = [specfun.TwistParams(j, T, l, T1) for T in (1, 2, 3, 4) for T1 in (1, 2)
               for j in range(T) for l in range(T1)]


@pytest.mark.parametrize("order", [F(1, 2), F(7, 3), F(12), F(41, 3)])
def test_builder_and_kernel_outputs_store_numerators_over_one_denominator(order):
    sectors = [SectorPair(2, i, j) for i in (0, 1) for j in (0, 1)]
    built = [specfun.dedekind_eta(order), specfun.partition_gf(order),
             specfun.eta_half_period_series(order), specfun.distinct_parts_product(order)]
    built += [specfun.jacobi_theta(w, order) for w in (1, 2, 3, 4)]
    built += [specfun.eisenstein(k, order) for k in (2, 4, 6, 12)]
    built += [specfun.q_twisted(k, tw, order) for k in range(6) for tw in REAL_TWISTS
              if k == 0 or not tw.trivial]
    for sp in sectors:
        built += [lattice.character(sp, order).series, lattice.eta_theta_form(sp, order),
                  lattice.l0_inserted_trace(sp, order), lattice.lattice_sum(sp, order)]
    for s in built:
        assert is_canonical(s), s
        outs = [-s, s.q_d_dq(), s.scale(F(-3, 4)), s * s, s + s.shifted(F(1, 2)),
                s.truncate(order - F(1, 5)), s.rescale(F(2, 3))]
        if not s.is_zero():
            outs.append(s.invert())
        for out in outs:
            assert is_canonical(out), (s, out)
    # E4 = 1/720 + q/3 + ...: one denominator for the whole series
    e4 = specfun.eisenstein(4, order)
    assert e4.den == 720 and e4.vals[:2] == ((1, 240) if order > 1 else (1,))


@pytest.mark.parametrize("den", [0, -2])
def test_from_slots_rejects_a_denominator_below_one(den):
    with pytest.raises(SeriesError, match="den"):
        PuiseuxSeries.from_slots([(0, 1), (2, 3)], 1, 4, den=den)


def test_noncanonical_inputs_give_canonical_outputs():
    # a Fraction-valued tuple built directly, and ints mixed into kernels
    s = PuiseuxSeries(1, 0, (F(2), F(0), F(-3, 2)), F(3), EXACT)
    for out in (s * s, s + s, s.invert(), s.scale(F(2, 3)), s.q_d_dq()):
        assert is_canonical(out)
    assert (s * s).coefficient_at(0) == 4 and type((s * s).coefficient_at(0)) is int
    assert s.invert().coefficient_at(0) == F(1, 2)


def test_exact_coefficients_are_typechecked():
    with pytest.raises(SeriesError):
        PuiseuxSeries(1, 0, (1, 0.5), F(2), EXACT)
    with pytest.raises(SeriesError):
        PuiseuxSeries.from_terms([(0, 0.5)], 1)


# -- the cached evaluate kernel against the Fraction-exponent reference -------

def reference_evaluate(s, tau):
    """`evaluate` as it was before the support cache: Fraction exponents per
    term, the support step rescanned per call."""
    import cmath
    tau = complex(tau)
    if tau.imag <= 0:
        raise NotInUpperHalfPlane(f"Im(tau) = {tau.imag} is not positive")
    idx = [i for i, c in enumerate(s.coeffs) if c != 0]
    g = 0
    for a, b in zip(idx, idx[1:]):
        g = math.gcd(g, b - a)
    step = float(F(g, s.ramification) if len(idx) > 1 else F(1, s.ramification))
    rho = math.exp(-2 * math.pi * tau.imag * step)
    if rho >= 0.9:
        raise InsufficientConvergence(f"|q|^step = {rho:.4f} >= 0.9 at tau = {tau}")
    value = 0j
    mags = []
    last_mag = 0.0
    for i, c in enumerate(s.coeffs):
        if c != 0:
            term = c * cmath.exp(2j * math.pi * tau * float(F(s.offset + i, s.ramification)))
            value += term
            last_mag = abs(term)
            mags.append(last_mag)
    tail = last_mag * rho / (1.0 - rho)
    recent = mags[-5:]
    reliable = all(x >= y for x, y in zip(recent, recent[1:]))
    return EvalResult(value, tail, reliable)


def outcome(fn, *args):
    """repr of the result, or the type and message of the error raised."""
    try:
        return repr(fn(*args))
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


complex_coeffs = st.builds(complex, st.floats(-50, 50), st.floats(-50, 50))


@st.composite
def evaluation_series(draw):
    """Dense, sparse, multi-grid and empty supports, exact or complex."""
    kind = draw(st.sampled_from(["dense", "sparse", "multigrid", "empty", "builder"]))
    D = draw(st.sampled_from([1, 2, 3, 8, 24]))
    order = draw(st.sampled_from([F(3), F(7, 2), F(41, 8), F(12)]))
    if kind == "builder":
        name = draw(st.sampled_from(["eta", "theta2", "theta3", "E4", "char"]))
        s = {"eta": lambda: specfun.dedekind_eta(order),
             "theta2": lambda: specfun.jacobi_theta(2, order),
             "theta3": lambda: specfun.jacobi_theta(3, order),
             "E4": lambda: specfun.eisenstein(4, order),
             "char": lambda: lattice.character(SectorPair(2, 1, 0), order).series}[name]()
    elif kind == "empty":
        s = PuiseuxSeries.zero(order)
    else:
        if kind == "dense":
            exps = [F(k, D) for k in range(-D, int(order * D)) if D <= 8]
        else:
            top = int(order * D) - 1
            exps = [F(k, D) for k in draw(st.lists(st.integers(-3 * D, top), max_size=6))]
        if kind == "multigrid":
            exps += [F(k, 5) for k in draw(st.lists(st.integers(-5, 14), max_size=4))]
        s = PuiseuxSeries.from_terms([(e, draw(coeffs)) for e in exps], order)
    if draw(st.booleans()):
        return s.to_complex()
    if draw(st.booleans()):
        cs = tuple(draw(complex_coeffs) if c else 0j for c in s.coeffs)
        return PuiseuxSeries(s.ramification, s.offset, cs, s.order, COMPLEX)
    return s


taus = st.builds(complex, st.floats(-2, 2), st.floats(0.02, 4))


@settings(max_examples=200, deadline=None)
@given(evaluation_series(), taus, st.booleans())
def test_evaluate_is_bit_identical_to_fraction_reference(s, tau, s_image):
    if s_image:
        tau = -1 / tau
    got = outcome(s.evaluate, tau)
    assert got == outcome(reference_evaluate, s, tau)
    if s.domain == EXACT:
        assert got == outcome(s.to_complex().evaluate, tau)


# -- the regrid kernel against the three loops it replaced --------------------

def reference_rescale(s, r):
    r = F(r)
    step = F(r.numerator, r.denominator * s.ramification)
    D, p = step.denominator, step.numerator
    off, order = s.offset * p, r * s.order
    n = max(0, math.ceil(order * D - off))
    cs = [0j if s.domain == COMPLEX else 0] * n
    for i, c in enumerate(s.coeffs):
        if i * p < n:
            cs[i * p] = c
    return PuiseuxSeries(D, off, tuple(cs), order, s.domain)


def reference_shifted(s, delta):
    delta = F(delta)
    D = math.lcm(s.ramification, delta.denominator)
    k = D // s.ramification
    off = s.offset * k + int(delta * D)
    order = s.order + delta
    cs = [0j if s.domain == COMPLEX else 0] * max(0, math.ceil(order * D - off))
    for i, c in enumerate(s.coeffs):
        cs[i * k] = c
    return PuiseuxSeries(D, off, tuple(cs), order, s.domain)


def reference_truncate(s, order):
    order = min(F(order), s.order)
    n = max(0, math.ceil(order * s.ramification - s.offset))
    return PuiseuxSeries(s.ramification, s.offset, s.coeffs[:n], order, s.domain)


@settings(max_examples=120, deadline=None)
@given(evaluation_series(),
       st.sampled_from([F(1), F(2), F(3), F(1, 2), F(3, 2), F(2, 5)]),
       st.sampled_from([F(0), F(1, 24), F(-5, 6), F(2), F(7, 3)]),
       st.sampled_from([F(0), F(1, 5), F(1), F(-1), F(100)]))
def test_regrid_matches_the_loops_it_replaced(s, r, delta, cut):
    # repr shows all five fields and the type of every coefficient
    assert repr(s.rescale(r)) == repr(reference_rescale(s, r))
    assert repr(s.shifted(delta)) == repr(reference_shifted(s, delta))
    assert repr(s.truncate(s.order - cut)) == repr(reference_truncate(s, s.order - cut))


def test_evaluate_reference_sees_overflow_and_convergence_errors():
    # the comparison above covers raised errors; pin that both kinds occur
    big = PuiseuxSeries.from_terms([(F(-300), 1), (F(1, 3), F(2, 3))], 2)
    assert outcome(big.evaluate, 2j).startswith("OverflowError")
    assert outcome(big.evaluate, 2j) == outcome(reference_evaluate, big, 2j)
    eta = specfun.dedekind_eta(5)
    assert outcome(eta.evaluate, 0.01j).startswith("InsufficientConvergence")
    assert outcome(eta.evaluate, 0.01j) == outcome(reference_evaluate, eta, 0.01j)
    # w * e has an infinite imaginary part from e = 29 on: the reference's exp
    # raises, and evaluate refuses the tau first
    eta = specfun.dedekind_eta(60)
    assert outcome(reference_evaluate, eta, 1e306 + 10j) == "ValueError: math domain error"
    assert outcome(eta.evaluate, 1e306 + 10j) == (
        "EvaluationError: Re(tau) = 1e+306 is too large: the phases of the terms at "
        "tau = (1e+306+10j) carry no correct bit")


def q2_400():
    return specfun.q_twisted(2, specfun.TwistParams(1, 2, 0, 1), 400)


def cut_inside_last_five():
    # exponents 0..9 at Im tau = 750/(2 pi 7.5): exp(w e) underflows from e = 8 on
    terms = [(F(e), complex(3 - e, 0.5 * e)) for e in range(10)]
    return PuiseuxSeries.from_terms(terms, 10, COMPLEX)


# explicit inputs that reach the underflow cut on their tau side; an exact
# series is also checked as its to_complex()
@pytest.mark.parametrize("build, tau, refused", [
    (lambda: specfun.eisenstein(4, 2000), 3j, False),
    (q2_400, 1j, False),
    (q2_400, 0.3 + 3j, False),
    (cut_inside_last_five, 0.2 + 750j / (2 * math.pi * 7.5), False),
    # Re(w * 8) = -745.0: exp is the least subnormal, so the term must be kept
    (lambda: PuiseuxSeries.from_terms([(F(8), 1), (F(9), 1)], 10), 745j / (2 * math.pi * 8),
     False),
    # the reference's exp raises a domain error; evaluate refuses the tau
    (lambda: specfun.dedekind_eta(60), 1e306 + 10j, True),
], ids=["E4-2000", "Q2-400-i", "Q2-400-3i", "cut-in-last-five", "subnormal-term-kept",
        "eta-60-exp-domain-error"])
def test_evaluate_matches_the_reference_past_the_underflow_cut(build, tau, refused):
    s = build()
    got = outcome(s.evaluate, tau)
    if refused:
        assert outcome(reference_evaluate, s, tau) == "ValueError: math domain error"
        assert got.startswith("EvaluationError: Re(tau) = 1e+306 is too large")
    else:
        assert got == outcome(reference_evaluate, s, tau)
    if s.domain == EXACT:
        assert got == outcome(s.to_complex().evaluate, tau)


def test_evaluate_refuses_a_phase_with_no_correct_bit():
    # |Im(w) e| = 2 pi |Re(tau) e| reaches 2^52 at Re(tau) = 2^52 / (2 pi |e|),
    # from either end of the kept exponents; a term past the underflow cut
    # does not count
    edge = 2.0 ** 52 / (2 * math.pi)
    q1 = PuiseuxSeries.from_terms([(F(1), 1)], 2)
    assert q1.evaluate(0.99 * edge + 1j).value != 0
    with pytest.raises(EvaluationError, match="carry no correct bit"):
        q1.evaluate(1.01 * edge + 1j)
    with pytest.raises(EvaluationError):
        PuiseuxSeries.from_terms([(F(-2), 1), (F(1), 1)], 2).evaluate(0.6 * edge + 1j)
    far = PuiseuxSeries.from_terms([(F(1), 1), (F(1000), 1)], 1001)
    assert far.evaluate(0.99 * edge + 1j).value == q1.evaluate(0.99 * edge + 1j).value


def exp_calls(op):
    """The number of cmath.exp calls that op() makes."""
    calls = []
    exp = cmath.exp
    with patch.object(cmath, "exp", lambda z: calls.append(z) or exp(z)):
        op()
    return len(calls)


def test_evaluate_stops_where_exp_underflows():
    q2 = q2_400().to_complex()
    tau = 3j
    assert len(q2.vals) == 800
    assert exp_calls(lambda: q2.evaluate(tau)) < 100
    # its image tau/(2 tau + 1) under (1,0,2,1) has Im 3/37: no term
    # underflows, and the quarter-ulp cut stops after 181 of the 800 terms
    # (plus the last five, for the tail)
    assert exp_calls(lambda: q2.evaluate(tau / (2 * tau + 1))) == 186
    short = cut_inside_last_five()
    assert exp_calls(lambda: short.evaluate(750j / (2 * math.pi * 7.5))) == 8


# -- the quarter-ulp cut: no later term can change a bit of the sum -----------

def kept_terms(s, tau):
    """The number of terms before the underflow cut: what evaluate summed
    before the quarter-ulp cut."""
    w = 2j * math.pi * complex(tau)
    return sum(1 for e, _ in s.terms() if w.real * float(e) >= series._EXP_UNDERFLOW)


@functools.cache
def cut_series(name):
    if name.startswith("Q2"):
        return specfun.q_twisted(2, specfun.TwistParams(*map(int, name[3:].split(","))), 400)
    return lattice.character(SectorPair(2, *map(int, name[5:].split(","))), 60).series


IMAGES = {"S": lambda t: -1 / t, "(1,0,2,1)": lambda t: t / (2 * t + 1),
          "(1,0,3,1)": lambda t: t / (3 * t + 1)}


@pytest.mark.parametrize("name, image", [
    (q2, image) for q2 in ("Q2:1,2,0,1", "Q2:0,1,1,3") for image in IMAGES
] + [(char, "S") for char in ("char:0,1", "char:1,1", "char:1,0")])
@pytest.mark.parametrize("tau", [0.3 + 1.2j, -0.7 + 1j, 0.2 + 2.5j])
def test_evaluate_matches_the_reference_where_the_quarter_ulp_cut_fires(name, image, tau):
    # the numeric laws' order-400 Q2 and order-60 characters at images with
    # Im 0.04 to 0.8, where no term underflows and most are below a quarter ulp
    s, t = cut_series(name), IMAGES[image](tau)
    got = outcome(s.evaluate, t)
    assert got == outcome(reference_evaluate, s, t)
    assert got == outcome(s.to_complex().evaluate, t)
    assert exp_calls(lambda: s.evaluate(t)) < kept_terms(s, t)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["Q2:1,2,0,1", "Q2:0,1,1,3", "char:0,1", "char:1,1"]),
       st.sampled_from(list(IMAGES)), st.builds(complex, st.floats(-1, 1), st.floats(1, 3)))
def test_evaluate_is_bit_identical_past_the_quarter_ulp_cut(name, image, tau):
    s, t = cut_series(name), IMAGES[image](tau)
    assert outcome(s.evaluate, t) == outcome(reference_evaluate, s, t)


def fourteen_terms(c8, c9=1e-30):
    """1 + i at q^0, then coefficients c8 at q^8 and c9 at q^9 among tiny
    ones at q^1 .. q^13: at tau = i, |q|^e = exp(-2 pi e) and every term is
    real times its coefficient, so the running sum is exactly 1 + i until q^8.
    evaluate sums the first eight terms before its first check, at q^8."""
    cs = [1 + 1j] + [1e-30] * 7 + [c8, c9] + [1e-30] * 4
    return PuiseuxSeries.from_terms([(F(e), c) for e, c in enumerate(cs)], 14, COMPLEX)


QUARTER_ULP_OF_ONE = 2.0 ** -54


# size: the term t at q^8, in quarter ulps of 1.0 (2^-54, half the float
# spacing below 1.0); the bound at q^8 is 2 |t|
@pytest.mark.parametrize("size, calls", [
    # the bound is 0.8 quarter ulps: the cut fires at q^8, and the last five
    # terms are still computed for the tail
    (0.4, 13),
    # t cannot move 1.0, but the bound is 1.5 quarter ulps: every term is summed
    (0.75, 14),
    # t moves 1.0 down to 1 - 2^-53: every term is summed
    (1.5, 14),
])
def test_the_cut_at_a_power_of_two_reads_a_quarter_ulp(size, calls):
    s = fourteen_terms(-size * QUARTER_ULP_OF_ONE / math.exp(-16 * math.pi))
    got = outcome(s.evaluate, 1j)
    assert got == outcome(reference_evaluate, s, 1j)
    assert exp_calls(lambda: s.evaluate(1j)) == calls
    assert (s.evaluate(1j).value.real == 1.0) == (size < 1)


def test_the_cut_reads_the_largest_later_coefficient():
    # a small coefficient at q^8 before one at q^9 large enough to move the
    # sum: the bound at q^8 must read |c9|, not |c8|
    r8, r9 = math.exp(-16 * math.pi), math.exp(-18 * math.pi)
    s = fourteen_terms(0.4 * QUARTER_ULP_OF_ONE / r8, -1.5 * QUARTER_ULP_OF_ONE / r9)
    assert s.evaluate(1j).value.real == 1.0 - 2.0 ** -53
    assert outcome(s.evaluate, 1j) == outcome(reference_evaluate, s, 1j)
    assert exp_calls(lambda: s.evaluate(1j)) == 14


def test_the_cut_is_checked_again_after_the_sum_cancels():
    # at the first check (q^8) the sum is 1 + i, and q^9 .. q^20 look
    # negligible; the term at q^8 then cancels the sum down to about
    # 2^-30 (1 + i), whose quarter ulp is 2^-84, so the check at q^9 fails
    # and the term there, about 2.8e-25, is kept
    r8 = math.exp(-16 * math.pi)
    cs = ([1 + 1j] + [1e-40] * 7 + [-(1 + 1j) * (1 - 2.0 ** -30) / r8]
          + [1 + 1j] * 12)
    s = PuiseuxSeries.from_terms([(F(e), c) for e, c in enumerate(cs)], 21, COMPLEX)
    got = s.evaluate(1j)
    assert abs(got.value) < 2.0 ** -29
    assert outcome(s.evaluate, 1j) == outcome(reference_evaluate, s, 1j)
    # the first ten terms, then the last five for the tail
    assert exp_calls(lambda: s.evaluate(1j)) == 15


@pytest.mark.parametrize("tau", [0.3j, 1j, 2j])
def test_a_real_series_at_an_imaginary_tau_never_cuts(tau):
    # every term is real, so the imaginary part of the sum stays 0.0, whose
    # quarter ulp is 0.0: no bound is below it, and every kept term is summed
    s = specfun.eisenstein(4, 60)
    got = s.evaluate(tau)
    assert got.value.imag == 0.0
    assert outcome(s.evaluate, tau) == outcome(reference_evaluate, s, tau)
    assert exp_calls(lambda: s.evaluate(tau)) == kept_terms(s, tau)


@pytest.mark.parametrize("tau", [complex("nan"), complex(0, float("nan")),
                                 complex(float("inf"), 1), complex(0, float("inf")),
                                 complex(float("-inf"), -1)])
def test_evaluate_rejects_non_finite_tau(tau):
    with pytest.raises(NotInUpperHalfPlane, match="is not finite"):
        specfun.dedekind_eta(5).to_complex().evaluate(tau)


@pytest.mark.parametrize("build", [
    lambda: specfun.dedekind_eta(10),
    lambda: specfun.jacobi_theta(2, F(61, 2)),
    lambda: PuiseuxSeries.from_terms([(F(-1, 24), 2), (F(23, 24), F(-3, 7))], 5),
    lambda: PuiseuxSeries.monomial(F(5), F(1, 8), 3),
])
def test_support_cache_changes_no_observable(build):
    cold, warm = build(), build()
    warm.evaluate(2j)  # fills the cache
    assert cold == warm and hash(cold) == hash(warm) and repr(cold) == repr(warm)
    assert cold.to_json_dict() == warm.to_json_dict()
    # a scan of the coefficients, as support_step did before the cache
    idx = [i for i, c in enumerate(cold.coeffs) if c != 0]
    gaps = [b - a for a, b in zip(idx, idx[1:])]
    step = F(math.gcd(*gaps) if gaps else 1, cold.ramification)
    assert warm.support_step() == step == build().support_step()
    assert warm.invert().to_json_dict() == build().invert().to_json_dict() \
        == dense_invert(build()).to_json_dict()
    assert cold.to_complex().evaluate(1 + 2j) == warm.to_complex().evaluate(1 + 2j)


# -- the stored form: the canonical support lattice behind the dense view -----

def domain_zero(domain):
    return 0 if domain == EXACT else 0j


def canonical(c, domain):
    """The value the constructor stores for c: an int when integral, else a
    Fraction; a complex with every zero as 0j."""
    if domain == COMPLEX:
        return complex(c) if c else 0j
    c = F(c)
    return c.numerator if c.denominator == 1 else c


EXACT_VALUES = [0, F(0), 1, -2, 7, F(1, 3), F(-5, 2), F(4)]
COMPLEX_VALUES = [0j, -0j, complex(-0.0, 0.0), 0, 3, 1 + 2j, -0.5j, 2.5]


@st.composite
def dense_fields(draw):
    """The five dense fields, mostly on a sparse lattice, with zeros of every
    kind (Fraction(0), -0j, an int 0 in a complex series) mixed in, and
    sometimes leading zeros before the first drawn slot."""
    D = draw(st.sampled_from([1, 2, 8, 24]))
    domain = draw(st.sampled_from([EXACT, COMPLEX]))
    off = draw(st.integers(min_value=-2 * D, max_value=2 * D))
    n = draw(st.integers(min_value=0, max_value=3 * D))
    order = F(off + n, D) - draw(st.sampled_from([F(0), F(1, 2 * D), F(1, 5 * D)]))
    step = draw(st.sampled_from([1, 2, 3, 5, 24]))
    values = st.sampled_from(EXACT_VALUES if domain == EXACT else COMPLEX_VALUES)
    zero = domain_zero(domain)
    cs = tuple(draw(values) if i % step == 0 or draw(st.integers(0, 9)) == 0 else zero
               for i in range(n))
    zeros = st.sampled_from([0, F(0)] if domain == EXACT else [0j, -0j, 0])
    lead = tuple(draw(st.lists(zeros, max_size=2 * D)))
    return D, off - len(lead), lead + cs, order, domain


def numerically_equal_variant(draw, fields):
    """Same dense fields, each zero swapped for another zero of its domain and,
    sometimes, one coefficient changed."""
    D, off, cs, order, domain = fields
    zeros = st.sampled_from([0, F(0)] if domain == EXACT else [0j, -0j, 0, complex(-0.0, -0.0)])
    cs = [draw(zeros) if c == 0 else c for c in cs]
    if cs and draw(st.booleans()):
        i = draw(st.integers(0, len(cs) - 1))
        cs[i] = cs[i] + 1
    return D, off, tuple(cs), order, domain


@settings(max_examples=300, deadline=None)
@given(dense_fields(), st.data())
def test_constructor_stores_the_canonical_form(fields, data):
    D, off, cs, order, domain = fields
    s = PuiseuxSeries(*fields)
    nonzero = [i for i, c in enumerate(cs) if c != 0]
    first = nonzero[0] if nonzero else 0
    # the dense view is the input from its first nonzero slot, value for value,
    # in canonical types; a zero series keeps its offset
    assert (s.ramification, s.offset, s.order, s.domain) == (D, off + first, order, domain)
    assert repr(s.coeffs) == repr(tuple(canonical(c, domain) for c in cs[first:]))
    # the stored lattice runs from the first to the last nonzero slot, step
    # the gcd spacing of the nonzero slots; an exact series stores integer
    # numerators over one den, gcd(den, *vals) = 1, a complex one den = 1
    if nonzero:
        assert s.vals[0] != 0 and s.vals[-1] != 0
        assert s.g == (math.gcd(*[i - first for i in nonzero]) or 1)
        lattice_view = s.coeffs[:nonzero[-1] - first + 1:s.g]
        if domain == EXACT:
            assert is_canonical(s)
            assert tuple(F(v, s.den) for v in s.vals) == lattice_view
        else:
            assert s.den == 1 and repr(s.vals) == repr(lattice_view)
    else:
        assert (s.g, s.vals, s.den) == (1, (), 1)
    assert s.lead() == (F(off + first, D) if nonzero else None)
    assert s.is_zero() == (not nonzero) and s.support_step() == F(s.g, D)
    # the canonical form is a fixed point of the constructor
    again = PuiseuxSeries(D, s.offset, s.coeffs, order, domain)
    assert again == s and hash(again) == hash(s) and repr(again) == repr(s)
    for copied in (pickle.loads(pickle.dumps(s)), copy.copy(s), copy.deepcopy(s)):
        assert copied == s and hash(copied) == hash(s) and repr(copied) == repr(s)
    # == and hash follow value equality of the five dense fields
    other = numerically_equal_variant(data.draw, fields)
    t = PuiseuxSeries(*other)
    assert (s == t) == (fields == other)
    if fields == other:
        assert hash(s) == hash(t)


def test_equal_values_are_equal_series_whatever_their_offset():
    a = PuiseuxSeries(1, 0, (0, 1), 2, EXACT)
    b = PuiseuxSeries(1, 1, (1,), 2, EXACT)
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    c = PuiseuxSeries(2, -1, (F(0), 0, F(3, 1), 0, F(1, 2)), F(4, 2), EXACT)
    assert (c.offset, c.g, c.vals, c.den) == (1, 2, (6, 1), 2)
    assert c.coeffs == (3, 0, F(1, 2)) and type(c.coeffs[0]) is int
    z = PuiseuxSeries(3, 2, (-0j, 0), F(4, 3), COMPLEX)
    assert (z.offset, z.vals, z.lead()) == (2, (), None) and z.coeffs == (0j, 0j)


def test_a_kernel_output_with_a_zero_lead_slot_moves_its_offset():
    # E2 = -1/12 + 2q + 6q^2 + ...: q d/dq zeroes the constant slot
    d = specfun.eisenstein(2, 3).q_d_dq()
    assert (d.ramification, d.offset, d.coeffs) == (1, 1, (2, 12))
    assert [d.coefficient_at(e) for e in (0, 1, 2)] == [0, 2, 12]
    assert d.equals(PuiseuxSeries.from_terms([(1, 2), (2, 12)], 3))
    assert d.equals(PuiseuxSeries(1, 0, (0, 2, 12), 3, EXACT))


def test_a_json_document_whose_first_term_is_past_slot_zero_moves_its_offset():
    doc = {"ramification": 2, "offset": -1, "order": {"num": 3, "den": 1}, "domain": EXACT,
           "terms": [{"i": 2, "coeff": {"num": 5, "den": 1}},
                     {"i": 4, "coeff": {"num": -1, "den": 3}}]}
    s = PuiseuxSeries.from_json_dict(doc)
    assert (s.offset, s.coeffs) == (-1 + 2, (5, 0, F(-1, 3), 0, 0))
    assert list(s.terms()) == [(F(1, 2), 5), (F(3, 2), F(-1, 3))]
    assert [s.coefficient_at(F(e, 2)) for e in range(-1, 6)] == [0, 0, 5, 0, F(-1, 3), 0, 0]
    assert s.equals(PuiseuxSeries.from_terms([(F(1, 2), 5), (F(3, 2), F(-1, 3))], 3))
    assert s.to_json_dict()["terms"] == [{"i": 0, "coeff": {"num": 5, "den": 1}},
                                         {"i": 2, "coeff": {"num": -1, "den": 3}}]


def test_no_code_under_src_reads_the_dense_view(monkeypatch, capsys, empty_builder_caches):
    """Every suite, the golden digests and the expand/char JSON run with
    `coeffs` raising: the kernels read the stored lattice only."""
    from test_golden import BUILDERS, GOLDEN, ORDER, digest

    commands = [["expand", "--series", name, "--order", "30", "--format", fmt]
                for name in ("eta", "theta2", "theta3", "E4", "Q2:1,2,0,1", "Q1:0,1,1,3",
                             "char:1,0") for fmt in ("json", "text")]
    commands += [["char", "--pair", pair, "--format", "json"] for pair in ("0,1", "1,1", "1,0")]

    def outputs():
        out = []
        for argv in commands:
            assert cli.main(argv) == 0
            out.append(capsys.readouterr().out)
        return out

    dense = outputs()

    def no_dense_reads(self):
        raise AssertionError("a kernel read the dense coefficient view")

    monkeypatch.setattr(PuiseuxSeries, "coeffs", property(no_dense_reads))
    empty_builder_caches()  # the memoized builds run again under the patch
    with pytest.raises(AssertionError, match="dense coefficient view"):
        PuiseuxSeries.one(3).coeffs
    reports, status = run_suite("all")
    assert status == 0 and len(reports) == len(GOLDEN["suite_default"]["verdicts"])
    for name, build in BUILDERS.items():
        assert digest(build(ORDER)) == GOLDEN["digests"][name], name
    assert outputs() == dense
