"""Identity and modular-transformation checking: exact series comparisons,
numeric slash-transform residuals, sector closure scans, and the named check
suites behind the CLI."""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from typing import NamedTuple

from . import lattice, specfun
from ._record import Record
from .modgroup import (IDENTITY, S, T, ModularMatrix, SectorPair, act_on_pair,
                       is_in_gamma, mobius)
from .series import (EXACT, EvaluationError, PuiseuxSeries, SeriesError)

DEFAULT_EXACT_ORDER = 30
DEFAULT_NUMERIC_ORDER = 60
DEFAULT_TOLERANCE = 1e-8
DEFAULT_SAMPLE_POINTS = (2j, 3j, 1 + 2j)

SUITE_NAMES = ("identities", "transforms", "closure", "eisenstein", "qk", "all")
# the CLI flags each suite reads besides --order
SUITE_FLAGS = {"identities": (), "transforms": ("tau", "tol"), "closure": ("tau", "tol"),
               "eisenstein": ("tol",), "qk": ("tol",)}


class WrongDomainError(SeriesError):
    """Exact comparison applied to complex-domain series."""


class DegenerateSectorError(ValueError):
    """Closure scan on a sector whose character vanishes identically."""


class CheckReport(Record):
    """One check's verdict; mutable (suites append to details), unhashable."""
    __slots__ = _fields = ("name", "kind", "passed", "order_used", "max_residual",
                           "tail_estimate", "details", "expected_fail", "aborted")

    def __init__(self, name: str, kind: str, passed: bool, order_used: Fraction,
                 max_residual: float | None = None, tail_estimate: float | None = None,
                 details: list | None = None, expected_fail: bool = False,
                 aborted: bool = False):
        self.name = name
        self.kind = kind  # "exact-series" | "numeric"
        self.passed = passed
        self.order_used = order_used
        self.max_residual = max_residual
        self.tail_estimate = tail_estimate
        self.details = [] if details is None else details
        self.expected_fail = expected_fail
        self.aborted = aborted

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "passed": self.passed,
            "order_used": {"num": self.order_used.numerator,
                           "den": self.order_used.denominator},
            "max_residual": self.max_residual,
            "tail_estimate": self.tail_estimate,
            "details": self.details,
            "expected_fail": self.expected_fail,
            "aborted": self.aborted,
        }

    def summary_line(self) -> str:
        if self.aborted:
            verdict = "ABORT"
        elif self.passed:
            verdict = "PASS"
        elif self.expected_fail:
            verdict = "XFAIL"
        else:
            verdict = "FAIL"
        extra = ""
        if self.kind == "numeric" and self.max_residual is not None:
            extra = f"  residual={self.max_residual:.3e} tail={self.tail_estimate:.3e}"
        return f"{verdict:5s} [{self.kind}] {self.name}{extra}"


class TransformSpec(NamedTuple):
    gamma: ModularMatrix
    weight: Fraction
    multiplier: complex
    sample_points: tuple
    tolerance: float


def _insufficient_order(name: str, have: Fraction, need: str,
                        expected_fail: bool = False) -> CheckReport:
    return CheckReport(name, "exact-series", False, have,
                       details=[{"error": "insufficient order",
                                 "have": str(have), "need": need}],
                       expected_fail=expected_fail)


def check_series_equal(name: str, a: PuiseuxSeries, b: PuiseuxSeries,
                       required_order=None, expected_fail: bool = False) -> CheckReport:
    """Exact coefficient-wise comparison up to min(order) of the operands."""
    if a.domain != EXACT or b.domain != EXACT:
        raise WrongDomainError("exact comparison requires exact-domain series")
    m = min(a.order, b.order)
    if required_order is not None and m < Fraction(required_order):
        return _insufficient_order(name, m, str(required_order), expected_fail)
    mismatch = a.first_mismatch(b)
    if mismatch is None:
        return CheckReport(name, "exact-series", True, m)
    e, ca, cb = mismatch
    return CheckReport(name, "exact-series", False, m,
                       details=[{"first_mismatch_exponent": str(e),
                                 "lhs": str(ca), "rhs": str(cb)}],
                       expected_fail=expected_fail)


def check_transform_numeric(name: str, f: PuiseuxSeries, g: PuiseuxSeries,
                            spec: TransformSpec) -> CheckReport:
    """Residuals of f(gamma tau) = multiplier * (c tau + d)^weight * g(tau)."""
    order = min(f.order, g.order)
    residuals = []
    tails = []
    details = []
    for tau in spec.sample_points:
        tau = complex(tau)
        gt = mobius(spec.gamma, tau)
        lhs = f.evaluate(gt)
        rhs = g.evaluate(tau)
        auto = cmath.exp(float(spec.weight) * cmath.log(spec.gamma.c * tau + spec.gamma.d)) \
            if spec.weight != 0 else 1.0 + 0j
        factor = spec.multiplier * auto
        res = abs(lhs.value - factor * rhs.value)
        tail = lhs.tail_estimate + abs(factor) * rhs.tail_estimate
        residuals.append(res)
        tails.append(tail)
        details.append({"tau": [tau.real, tau.imag], "residual": res, "tail": tail,
                        "tail_reliable": lhs.tail_reliable and rhs.tail_reliable})
    max_res = max(residuals)
    max_tail = max(tails)
    passed = max_res < spec.tolerance and max_tail < spec.tolerance / 10
    return CheckReport(name, "numeric", passed, order, max_res, max_tail, details)


def _numeric_report(name, order, residual_tails, tolerance) -> CheckReport:
    # residual_tails: list of (tau, residual, tail)
    max_res = max(r for _, r, _ in residual_tails)
    max_tail = max(t for _, _, t in residual_tails)
    details = [{"tau": [complex(tau).real, complex(tau).imag],
                "residual": r, "tail": t} for tau, r, t in residual_tails]
    passed = max_res < tolerance and max_tail < tolerance / 10
    return CheckReport(name, "numeric", passed, Fraction(order), max_res, max_tail, details)


def closure_scan(sector: SectorPair, gamma: ModularMatrix, sample_points,
                 tolerance: float, order=DEFAULT_NUMERIC_ORDER):
    """Map the sector through the SL(2,Z) action and fit the connecting scalar.

    The scalar is the ratio at the first sample point; the report verifies the
    same scalar fits every remaining point (constancy in tau).
    Returns (target sector, scalar, report).
    """
    target = act_on_pair(sector, gamma)
    f = lattice.character(sector, order).series.to_complex()
    g = lattice.character(target, order).series.to_complex()
    if g.is_zero():
        raise DegenerateSectorError(f"target sector {target} has identically zero character")
    name = f"closure-({sector.i},{sector.j})-gamma{gamma.entries()}"
    pts = [complex(t) for t in sample_points]
    vals = []
    tails = []
    for tau in pts:
        lv = f.evaluate(mobius(gamma, tau))
        rv = g.evaluate(tau)
        vals.append((lv.value, rv.value))
        tails.append(lv.tail_estimate + rv.tail_estimate)
    scalar = vals[0][0] / vals[0][1]
    rts = [(tau, abs(lv - scalar * rv), tl)
           for tau, (lv, rv), tl in zip(pts, vals, tails)]
    report = _numeric_report(name, order, rts, tolerance)
    report.details.append({"target": [target.i, target.j],
                           "scalar": [scalar.real, scalar.imag]})
    return target, scalar, report


# ---------------------------------------------------------------------------
# suites

def _eta_s_residuals(eta: PuiseuxSeries, points):
    """Residuals of eta(-1/tau) = (-i tau)^{1/2} eta(tau), principal branch."""
    out = []
    for tau in points:
        tau = complex(tau)
        lhs = eta.evaluate(-1 / tau)
        rhs = eta.evaluate(tau)
        factor = cmath.sqrt(-1j * tau)
        out.append((tau, abs(lhs.value - factor * rhs.value),
                    lhs.tail_estimate + abs(factor) * rhs.tail_estimate))
    return out


def identities_suite(exact_order=None) -> list[CheckReport]:
    reports = []
    o_long = Fraction(exact_order) if exact_order is not None else Fraction(52)
    o_std = Fraction(exact_order) if exact_order is not None else Fraction(34)
    o_deriv = Fraction(exact_order) if exact_order is not None else Fraction(24)

    zero = PuiseuxSeries.zero(o_long)
    reports.append(check_series_equal(
        "theta1-vanishes", specfun.jacobi_theta(1, o_long), zero, required_order=50))
    reports.append(check_series_equal(
        "character-(0,0)-vanishes",
        lattice.character(SectorPair(2, 0, 0), o_long).series, zero, required_order=50))

    for sec in ((0, 1), (1, 1), (1, 0)):
        sp = SectorPair(2, *sec)
        reports.append(check_series_equal(
            f"character-({sec[0]},{sec[1]})-eta-theta",
            lattice.character(sp, o_std).series,
            lattice.eta_theta_form(sp, o_std), required_order=30))

    # theta-eta relations; tau/2 pieces need eta built to twice the target order
    eta = specfun.dedekind_eta(o_std)
    eta2 = specfun.dedekind_eta(2 * o_std)
    eta_double = eta2.rescale(2).truncate(2 * o_std)
    eta_half = eta2.rescale(Fraction(1, 2))
    reports.append(check_series_equal(
        "theta2-eta-relation", specfun.jacobi_theta(2, o_std),
        (eta_double ** 2 * eta.invert()).scale(2), required_order=30))
    reports.append(check_series_equal(
        "theta3-eta-relation", specfun.jacobi_theta(3, o_std),
        eta2 ** 5 * (eta_double ** 2 * eta_half ** 2).invert(), required_order=30))
    reports.append(check_series_equal(
        "theta4-eta-relation", specfun.jacobi_theta(4, o_std),
        eta_half ** 2 * eta.invert(), required_order=30))

    for sec in ((0, 0), (0, 1), (1, 1), (1, 0)):
        sp = SectorPair(2, *sec)
        reports.append(check_series_equal(
            f"l0-insertion-({sec[0]},{sec[1]})",
            lattice.l0_inserted_trace(sp, o_deriv),
            lattice.character(sp, o_deriv).series.q_d_dq(), required_order=20))

    # paper-literal variant of the (sigma,1) oscillator factor: prod(1+q^n)
    # instead of the partition generating function; documented discrepancy.
    sp = SectorPair(2, 1, 0)
    literal = (specfun.distinct_parts_product(o_std + 1)
               * lattice.lattice_sum(sp, o_std + 1)).shifted(Fraction(1, 12)).truncate(o_std)
    reports.append(check_series_equal(
        "character-(1,0)-distinct-parts-variant (expected fail)",
        literal, lattice.eta_theta_form(sp, o_std),
        required_order=30, expected_fail=True))
    return reports


def transforms_suite(numeric_order=None, tol=None, sample_points=None) -> list[CheckReport]:
    order = Fraction(numeric_order) if numeric_order is not None else Fraction(DEFAULT_NUMERIC_ORDER)
    points = tuple(sample_points) if sample_points else (2j, 1 + 2j)
    reports = []
    eta = specfun.dedekind_eta(order).to_complex()
    t_tol = tol if tol is not None else 1e-10
    reports.append(check_transform_numeric(
        "eta-T-law", eta, eta,
        TransformSpec(T, Fraction(0), cmath.exp(1j * math.pi / 12), points, t_tol)))
    reports.append(_numeric_report("eta-S-law", order,
                                   _eta_s_residuals(eta, points), t_tol))

    # half-argument law eta((tau+1)/2) = eta(tau)^3 / (eta(tau/2) eta(2 tau)),
    # checked at series level: the q-expansion of the left side (phase stripped)
    # against the right side evaluated pointwise.  The pointwise principal
    # branch carries the extra root of unity e^{i pi/24}.
    h_tol = tol if tol is not None else 1e-9
    half = specfun.eta_half_period_series(order).to_complex()
    rts = []
    for tau in (2j,):
        tau = complex(tau)
        lhs = half.evaluate(tau)
        e1 = eta.evaluate(tau)
        e2 = eta.evaluate(tau / 2)
        e3 = eta.evaluate(2 * tau)
        rhs = e1.value ** 3 / (e2.value * e3.value)
        tail = lhs.tail_estimate + e1.tail_estimate + e2.tail_estimate + e3.tail_estimate
        rts.append((tau, abs(lhs.value - rhs), tail))
    rep = _numeric_report("eta-half-argument-law", order, rts, h_tol)
    rep.details.append({"note": "left side is the q-expansion of "
                                "e^{-i pi/24} eta((tau+1)/2); the pointwise "
                                "principal branch carries that extra phase"})
    reports.append(rep)
    return reports


def closure_suite(numeric_order=None, tol=None, sample_points=None) -> list[CheckReport]:
    order = Fraction(numeric_order) if numeric_order is not None else Fraction(DEFAULT_NUMERIC_ORDER)
    tolerance = tol if tol is not None else DEFAULT_TOLERANCE
    points = tuple(sample_points) if sample_points else DEFAULT_SAMPLE_POINTS
    reports = []

    # S-closure of the supertrace vector at weight 0
    c01 = lattice.character(SectorPair(2, 0, 1), order).series.to_complex()
    c11 = lattice.character(SectorPair(2, 1, 1), order).series.to_complex()
    c10 = lattice.character(SectorPair(2, 1, 0), order).series.to_complex()
    s_points = (2j, 3j)
    reports.append(check_transform_numeric(
        "S-closure-(0,1)->(1,0)", c01, c10,
        TransformSpec(S, Fraction(0), 1.0 + 0j, s_points, tolerance)))
    reports.append(check_transform_numeric(
        "S-closure-(1,1)->(1,1)", c11, c11,
        TransformSpec(S, Fraction(0), 1.0 + 0j, s_points, tolerance)))

    for sec, gamma in (((0, 1), T), ((1, 1), T), ((1, 0), T),
                       ((0, 1), S), ((1, 1), S)):
        sp = SectorPair(2, *sec)
        target, scalar, report = closure_scan(sp, gamma, points, tolerance, order)
        report.details.append({"note": "scalar is a fitted constant, "
                                       "recorded for v = 1 only"})
        reports.append(report)
    return reports


def eisenstein_suite(exact_order=None, numeric_order=None, tol=None) -> list[CheckReport]:
    o_exact = Fraction(exact_order) if exact_order is not None else Fraction(DEFAULT_EXACT_ORDER)
    order = Fraction(numeric_order) if numeric_order is not None else Fraction(DEFAULT_NUMERIC_ORDER)
    tolerance = tol if tol is not None else DEFAULT_TOLERANCE
    reports = []
    for k in (2, 4, 6):
        ek = specfun.eisenstein(k, o_exact)
        expected = -specfun.bernoulli_number(k) / math.factorial(k)
        reports.append(check_series_equal(
            f"E{k}-constant-term", PuiseuxSeries.monomial(ek.coefficient_at(0), 0, o_exact),
            PuiseuxSeries.monomial(expected, 0, o_exact)))
    for k in (4, 6):
        ek = specfun.eisenstein(k, order).to_complex()
        reports.append(check_transform_numeric(
            f"E{k}-S-modularity", ek, ek,
            TransformSpec(S, Fraction(k), 1.0 + 0j, (2j,), tolerance)))

    # E2 quasi-modularity: (E2(-1/tau) - tau^2 E2(tau))/tau against its predicted value
    predicted = 1j / (2 * math.pi)
    e2 = specfun.eisenstein(2, order).to_complex()
    rts = []
    measured = []
    for tau in (2j, 3j):
        tau = complex(tau)
        lv = e2.evaluate(-1 / tau)
        rv = e2.evaluate(tau)
        const = (lv.value - tau ** 2 * rv.value) / tau
        measured.append([const.real, const.imag])
        tail = (lv.tail_estimate + abs(tau) ** 2 * rv.tail_estimate) / abs(tau)
        rts.append((tau, abs(const - predicted), tail))
    rep = _numeric_report("E2-S-defect-constancy", order, rts, tolerance)
    rep.details.append({"predicted_defect_over_tau": [predicted.real, predicted.imag],
                        "measured_defect_over_tau": measured,
                        "note": "E2 = -E2_classical/12 and E2_classical(-1/tau) = "
                                "tau^2 E2_classical(tau) + 12 tau/(2 pi i), so the "
                                "defect/tau is -1/(2 pi i) = i/(2 pi)"})
    reports.append(rep)
    return reports


def qk_suite(exact_order=None, numeric_order=None, tol=None) -> list[CheckReport]:
    o_exact = Fraction(exact_order) if exact_order is not None else Fraction(DEFAULT_EXACT_ORDER)
    o_num = Fraction(numeric_order) if numeric_order is not None else Fraction(400)
    tolerance = tol if tol is not None else 1e-6
    reports = []

    tw_half = specfun.TwistParams(0, 1, 1, 2)
    reports.append(check_series_equal(
        "Q0-is-minus-one", specfun.q_twisted(0, tw_half, o_exact),
        PuiseuxSeries.monomial(Fraction(-1), 0, o_exact)))

    # tau -> tau + T periodicity, exact at series level
    ok = True
    detail = []
    for k in range(5):
        for T_ord in (1, 2):
            for T1_ord in (1, 2):
                for j in range(T_ord):
                    for l in range(T1_ord):
                        tw = specfun.TwistParams(j, T_ord, l, T1_ord)
                        if k >= 1 and tw.trivial:
                            continue
                        qk = specfun.q_twisted(k, tw, o_exact)
                        if not qk.shift_tau(T_ord).equals(qk):
                            ok = False
                            detail.append({"k": k, "twist": [j, T_ord, l, T1_ord]})
    reports.append(CheckReport("Qk-tau-periodicity", "exact-series", ok, o_exact,
                               details=detail))

    reports.append(check_series_equal(
        "Q1-(mu=-1,lam=1)-vanishes",
        specfun.q_twisted(1, specfun.TwistParams(1, 2, 0, 1), o_exact),
        PuiseuxSeries.zero(o_exact)))

    name = "Q2-(mu=-1,lam=1)-low-coefficients"
    if o_exact <= Fraction(1, 2):  # the q^(1/2) coefficient is not known
        reports.append(_insufficient_order(name, o_exact, "above 1/2"))
    else:
        q2 = specfun.q_twisted(2, specfun.TwistParams(1, 2, 0, 1), o_exact)
        reports.append(check_series_equal(
            name,
            PuiseuxSeries.from_terms([(Fraction(0), q2.coefficient_at(0)),
                                      (Fraction(1, 2), q2.coefficient_at(Fraction(1, 2)))], 1),
            PuiseuxSeries.from_terms([(Fraction(0), Fraction(1, 24)),
                                      (Fraction(1, 2), Fraction(1))], 1)))

    gamma = ModularMatrix(1, 0, 2, 1)
    member = is_in_gamma(gamma, 2, 1)
    reports.append(CheckReport("Q2-gamma-in-Gamma(2,1)", "exact-series", member,
                               Fraction(0), details=[{"gamma": list(gamma.entries())}]))
    if member:
        q2n = specfun.q_twisted(2, specfun.TwistParams(1, 2, 0, 1), o_num).to_complex()
        reports.append(check_transform_numeric(
            "Q2-weight-2-modularity", q2n, q2n,
            TransformSpec(gamma, Fraction(2), 1.0 + 0j, (1j,), tolerance)))
    return reports


def suites_of(suite_name: str) -> tuple[str, ...]:
    """The suites a suite name runs ("all" runs every one)."""
    if suite_name not in SUITE_NAMES:
        raise ValueError(f"unknown suite {suite_name!r}; choose from {SUITE_NAMES}")
    return SUITE_NAMES[:-1] if suite_name == "all" else (suite_name,)


def run_suite(suite_name: str, exact_order=None, numeric_order=None,
              tol=None, sample_points=None) -> tuple[list[CheckReport], int]:
    """Execute a named check battery; exit status 0 iff all non-expected-fail pass."""
    names = suites_of(suite_name)
    reports: list[CheckReport] = []
    aborted = False
    for name in names:
        try:
            if name == "identities":
                reports.extend(identities_suite(exact_order))
            elif name == "transforms":
                reports.extend(transforms_suite(numeric_order, tol, sample_points))
            elif name == "closure":
                reports.extend(closure_suite(numeric_order, tol, sample_points))
            elif name == "eisenstein":
                reports.extend(eisenstein_suite(exact_order, numeric_order, tol))
            elif name == "qk":
                reports.extend(qk_suite(exact_order, numeric_order, tol))
        except EvaluationError as exc:
            reports.append(CheckReport(f"{name}-suite", "numeric", False, Fraction(0),
                                       details=[{"error": str(exc)}], aborted=True))
            aborted = True
    reports.sort(key=lambda r: r.name)
    if aborted:
        status = 3
    elif all(r.passed or r.expected_fail for r in reports):
        status = 0
    else:
        status = 1
    return reports, status
