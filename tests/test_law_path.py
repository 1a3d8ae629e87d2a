"""The numeric-law path: `check_transform_numeric` against a reference copy
of the loop it replaced, and structural guards on its per-call work.

The reference below is the law path as it was with a residual closure, the
`_numeric_law` that looped over the points through it, and a slash factor
that read its weight as a Fraction at every point; tests/test_verify.py's
property over random laws reads the same reference.  The guards count calls
(Fraction constructions and `cmath.exp`), not time.
"""

import cmath
import math
from fractions import Fraction as F
from unittest.mock import patch

import pytest

from qmodver import lattice, specfun, verify
from qmodver.modgroup import S, T, ModularMatrix, SectorPair, mobius
from qmodver.series import COMPLEX, InsufficientConvergence, PuiseuxSeries
from qmodver.verify import (_LEAD_BOUND, CheckReport, TransformSpec, _insufficient_order,
                            check_transform_numeric)


def reference_slash_factor(k, m, tau):
    tau = complex(tau)
    if tau.imag <= 0:
        raise ValueError(f"tau = {tau} is not in the upper half plane")
    k = F(k)
    if k == 0:
        return 1.0 + 0j
    return cmath.exp(-float(k) * cmath.log(m.c * tau + m.d))


def reference_numeric_law(name, sides, points, tol, residual):
    order = min(s.order for s in sides.values())
    details = []
    for tau in points:
        tau = complex(tau)
        res, tail, extra = residual(tau)
        details.append({"tau": [tau.real, tau.imag], "residual": res, "tail": tail, **extra})
    vanishing = [label for label, s in sides.items() if s.is_zero()]
    if vanishing and all(sides[label].order > _LEAD_BOUND for label in vanishing):
        return CheckReport(name, "numeric", False, order,
                           details=[{"error": "degenerate law", "vanishing": vanishing}])
    if vanishing:
        return _insufficient_order(name, order, "a nonzero term on each side", kind="numeric")
    max_res = max(d["residual"] for d in details)
    max_tail = max(d["tail"] for d in details)
    passed = max_res < tol and max_tail < tol / 10
    return CheckReport(name, "numeric", passed, order, max_res, max_tail, details)


def reference_transform_numeric(name, f, g, spec):
    def residual(tau):
        lhs = f.evaluate(mobius(spec.gamma, tau))
        rhs = g.evaluate(tau)
        factor = spec.multiplier * reference_slash_factor(-spec.weight, spec.gamma, tau)
        return (abs(lhs.value - factor * rhs.value),
                lhs.tail_estimate + abs(factor) * rhs.tail_estimate,
                {"tail_reliable": lhs.tail_reliable and rhs.tail_reliable})

    return reference_numeric_law(name, {"lhs": f, "rhs": g}, spec.sample_points,
                                 spec.tolerance, residual)


def both(f, g, spec):
    """(reference, new) reports; repr of to_json_dict() shows every float bit
    for bit and compares NaN as text."""
    ref = reference_transform_numeric("law", f, g, spec)
    got = check_transform_numeric("law", f, g, spec)
    return repr(ref.to_json_dict()), repr(got.to_json_dict())


def eta():
    return specfun.dedekind_eta(60)


def q2():
    return specfun.q_twisted(2, specfun.TwistParams(1, 2, 0, 1), 400)


def character(i, j, order=60):
    return lattice.character(SectorPair(2, i, j), order).series


ONE_POINT = ((0.3 + 1.2j),)
POINTS = ((0.3 + 1.2j), 2j, (-0.7 + 1j), (1 + 2j))

LAWS = {
    "eta-T": (eta, eta, T, F(0), cmath.exp(1j * math.pi / 12), 1e-10),
    "eta-S": (eta, eta, S, F(1, 2), cmath.exp(-1j * math.pi / 4), 1e-10),
    "E4-S": (lambda: specfun.eisenstein(4, 60), lambda: specfun.eisenstein(4, 60), S, F(4),
             1 + 0j, 1e-8),
    "S-closure-(0,1)->(1,0)": (lambda: character(0, 1), lambda: character(1, 0), S, F(0),
                               1 + 0j, 1e-8),
    "Q2-(1,0,2,1)": (q2, q2, ModularMatrix(1, 0, 2, 1), F(2), 1 + 0j, 1e-6),
    # a failing law: E4 against E6 at weight 4
    "E4-E6-wrong": (lambda: specfun.eisenstein(4, 40), lambda: specfun.eisenstein(6, 40), S,
                    F(4), 1 + 0j, 1e-8),
    # a weight given as an int, and a negative one
    "eta-S-int-weight": (eta, eta, S, 1, 1 + 0j, 1e-8),
    "eta-S-negative-weight": (eta, eta, S, F(-1, 2), 1 + 0j, 1e-8),
}


@pytest.mark.parametrize("points", [ONE_POINT, POINTS], ids=["one-point", "four-points"])
@pytest.mark.parametrize("law", sorted(LAWS))
@pytest.mark.parametrize("domain", ["exact", "complex"])
def test_the_law_path_matches_the_reference(law, points, domain):
    f, g, gamma, weight, multiplier, tol = LAWS[law]
    f, g = f(), g()
    if domain == "complex":
        f, g = f.to_complex(), (f.to_complex() if g is f else g.to_complex())
    ref, got = both(f, g, TransformSpec(gamma, weight, multiplier, points, tol))
    assert got == ref


@pytest.mark.parametrize("lhs, rhs, order, vanishing", [
    # theta1 vanishes identically: a degenerate law, whatever its order
    ("theta1", "theta1", 30, ["lhs", "rhs"]),
    ("E4", "theta1", 30, ["rhs"]),
    # a side truncated to nothing at an order of at most 1
    ("E4", "E4", 0, None),
    ("E4", "theta1", 1, None),
])
@pytest.mark.parametrize("points", [ONE_POINT, POINTS], ids=["one-point", "four-points"])
def test_a_vanishing_side_is_reported_as_before(lhs, rhs, order, vanishing, points):
    f, g = (PuiseuxSeries.zero(F(order)) if name == "theta1" and order <= 1
            else specfun.jacobi_theta(1, order) if name == "theta1"
            else specfun.eisenstein(4, order) for name in (lhs, rhs))
    ref, got = both(f, g, TransformSpec(S, F(4), 1 + 0j, points, 1e-8))
    assert got == ref
    error = "degenerate law" if vanishing else "insufficient order"
    assert f"'error': '{error}'" in got


def overflowing():
    """A series whose terms overflow to inf and NaN parts where |q|^-1 is
    large, and stay finite at Im tau of order 1."""
    return PuiseuxSeries.from_terms(
        [(F(-1), 1e300 + 1e300j), (F(0), 1.0), (F(1), 1e300 - 1e300j), (F(2), 1.0)], 14,
        COMPLEX)


@pytest.mark.parametrize("points", [
    (0.2 + 100j,),
    (0.2 + 100j, 2j, 0.1 + 1.5j),  # a leading NaN stays the maximum, as with max()
    (2j, 0.2 + 100j, 0.1 + 1.5j),  # a later NaN does not replace it
], ids=["nan-alone", "nan-first", "nan-second"])
def test_a_nan_residual_is_reported_as_before(points):
    s = overflowing()
    ref, got = both(s, s, TransformSpec(T, F(0), 1 + 0j, points, 1e-8))
    assert got == ref
    assert "nan" in got


def test_a_point_that_does_not_converge_aborts_after_the_same_evaluation():
    s = eta().to_complex()
    spec = TransformSpec(T, F(0), cmath.exp(1j * math.pi / 12), (2j, 0.001j, 3j), 1e-10)
    seen = {}
    for path in (reference_transform_numeric, check_transform_numeric):
        calls = []
        evaluate = PuiseuxSeries.evaluate
        with patch.object(PuiseuxSeries, "evaluate",
                          lambda self, tau: calls.append(tau) or evaluate(self, tau)):
            with pytest.raises(InsufficientConvergence) as exc:
                path("law", s, s, spec)
        seen[path] = (calls, str(exc.value))
    ref, got = seen.values()
    assert got == ref
    # the lhs at the image of the second point is the last evaluation
    assert len(got[0]) == 3


def test_a_law_with_no_sample_point_is_refused():
    s = eta()
    spec = TransformSpec(T, F(0), 1 + 0j, (), 1e-10)
    with pytest.raises(ValueError):
        reference_transform_numeric("law", s, s, spec)
    with pytest.raises(ValueError, match="no sample point"):
        check_transform_numeric("law", s, s, spec)
    # a vanishing side is still reported first
    z = PuiseuxSeries.zero(F(30))
    assert both(z, z, spec)[0] == both(z, z, spec)[1]


# -- structural guards: no fixed cost creeps back ------------------------------

def calls_to(target, name, op):
    """The number of calls that op() makes to target.name."""
    calls = []
    original = getattr(target, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    with patch.object(target, name, counting):
        op()
    return len(calls)


def fractions_made(op):
    return calls_to(F, "__new__", op)


def exps_made(op):
    return calls_to(cmath, "exp", op)


@pytest.mark.parametrize("law", sorted(LAWS))
def test_a_law_at_one_point_makes_no_fraction_once_its_spec_is_built(law):
    f, g, gamma, weight, multiplier, tol = LAWS[law]
    f, g = f().to_complex(), g().to_complex()
    one = TransformSpec(gamma, weight, multiplier, ONE_POINT, tol)
    many = TransformSpec(gamma, weight, multiplier, POINTS, tol)
    check_transform_numeric("law", f, g, many)  # builds each float view
    # the law negates its weight once; Fraction.__neg__ goes through
    # Fraction() before Python 3.12, and builds its result directly from 3.12
    negation = fractions_made(lambda: -weight)
    assert negation <= 1
    assert fractions_made(lambda: check_transform_numeric("law", f, g, one)) == negation
    # and nothing per sample point
    assert fractions_made(lambda: check_transform_numeric("law", f, g, many)) == negation


@pytest.mark.parametrize("zero", [PuiseuxSeries.zero(F(60)), PuiseuxSeries.zero(F(7, 3)),
                                  PuiseuxSeries.zero(F(60)).to_complex()])
def test_the_zero_series_evaluates_without_exp_or_fraction(zero):
    for tau in (2j, 0.3 + 1.2j):
        assert exps_made(lambda: zero.evaluate(tau)) == 0
        assert fractions_made(lambda: zero.evaluate(tau)) == 0
        assert zero.evaluate(tau) == (0j, 0.0, True)
    # the convergence check still comes first
    with pytest.raises(InsufficientConvergence):
        zero.evaluate(0.001j)


def test_evaluate_makes_no_fraction():
    for s in (eta(), eta().to_complex(), q2().to_complex(), character(1, 0)):
        s.evaluate(2j)  # builds the float view
        assert fractions_made(lambda: s.evaluate(0.3 + 1.2j)) == 0
        assert fractions_made(lambda: s.evaluate(-1 / (0.3 + 1.2j))) == 0


def test_verify_keeps_the_names_the_tracer_rebinds():
    # perfbench/tracer.py wraps modgroup.mobius and rebinds verify's name for
    # it; the law reaches mobius through that name, so a traced run sees it
    s = eta().to_complex()
    spec = TransformSpec(T, F(0), 1 + 0j, POINTS, 1e-10)
    assert calls_to(verify, "mobius", lambda: check_transform_numeric("law", s, s, spec)) == 4
    assert calls_to(PuiseuxSeries, "evaluate",
                    lambda: check_transform_numeric("law", s, s, spec)) == 8
