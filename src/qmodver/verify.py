"""Identity and modular-transformation checking: exact series comparisons,
numeric slash-transform residuals, sector closure scans, and the named check
suites behind the CLI."""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from typing import Callable, NamedTuple

from . import lattice, specfun
from ._record import Record
from .modgroup import (S, T, ModularMatrix, SectorPair, _cz_power, act_on_pair,
                       is_in_gamma, mobius)
from .series import EXACT, EvaluationError, PuiseuxSeries, WrongDomainError

DEFAULT_EXACT_ORDER = 30
DEFAULT_NUMERIC_ORDER = 60
DEFAULT_TOLERANCE = 1e-8
DEFAULT_SAMPLE_POINTS = (2j, 3j, 1 + 2j)

SUITE_NAMES = ("identities", "transforms", "closure", "eisenstein", "qk", "all")
# the CLI flags each suite reads besides --order
SUITE_FLAGS = {"identities": (), "transforms": ("tau", "tol"), "closure": ("tau", "tol"),
               "eisenstein": ("tol",), "qk": ("tol",)}


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
        doc = dict(zip(self._fields, self._values()))
        doc["order_used"] = {"num": self.order_used.numerator,
                             "den": self.order_used.denominator}
        return doc

    def verdict(self) -> str:
        """"abort", "pass", "xfail" or "fail", in that precedence."""
        if self.aborted:
            return "abort"
        if self.passed:
            return "pass"
        return "xfail" if self.expected_fail else "fail"

    def summary_line(self) -> str:
        extra = ""
        if self.kind == "numeric" and self.max_residual is not None:
            extra = f"  residual={self.max_residual:.3e} tail={self.tail_estimate:.3e}"
        return f"{self.verdict().upper():5s} [{self.kind}] {self.name}{extra}"


class TransformSpec(NamedTuple):
    gamma: ModularMatrix
    weight: Fraction
    multiplier: complex
    sample_points: tuple
    tolerance: float


class _ExactRow(NamedTuple):
    """One exact identity lhs() = rhs(), whose builders ask for `order`.

    `need` is the coverage the identity requires: a least order, re-checked
    by check_series_equal after the build, or "above x" when a side reads the
    coefficient at q^x (or the identity is first tested at q^x).
    """
    name: str
    order: Fraction
    need: Fraction | int | str
    lhs: Callable[[], PuiseuxSeries]
    rhs: Callable[[], PuiseuxSeries]
    expected_fail: bool = False


def _given(value, default):
    """A suite argument, or its default when the caller passed None."""
    return default if value is None else value


def _insufficient_order(name: str, have: Fraction, need: str, expected_fail: bool = False,
                        kind: str = "exact-series") -> CheckReport:
    return CheckReport(name, kind, False, have,
                       details=[{"error": "insufficient order",
                                 "have": str(have), "need": need}],
                       expected_fail=expected_fail)


def _covers(order: Fraction, need) -> bool:
    """Whether a build at `order` meets an `_ExactRow` coverage."""
    if isinstance(need, str):
        return order > Fraction(need.removeprefix("above "))
    return order >= need


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


def _exact_rows(rows) -> list[CheckReport]:
    """One report per row; a row whose order falls short of its coverage is
    reported as insufficient before either side is built."""
    reports = []
    for name, order, need, lhs, rhs, expected_fail in rows:
        if not _covers(order, need):
            reports.append(_insufficient_order(name, order, str(need), expected_fail))
        else:
            recheck = None if isinstance(need, str) else need
            reports.append(check_series_equal(name, lhs(), rhs(), recheck, expected_fail))
    return reports


# Every series the package builds either vanishes identically (theta1,
# character (0,0), Q_k for odd k under a real twist) or has a nonzero term at
# an exponent of at most this bound, so a side that is zero below a higher
# order vanishes identically, and no order makes its law say anything.
_LEAD_BOUND = 1


def _numeric_law(name: str, sides: dict, details: list, tol: float) -> CheckReport:
    """The numeric pass rule over the evaluated sample points.

    `details` holds one entry per point, with the residual and the tail
    estimate of a law between the series `sides` (label -> series); the law
    passes when every residual is below tol and every tail below tol/10.  A
    side with no nonzero term below its order has value 0 and tail 0 at every
    tau, so such a law fails instead, after the points are evaluated (a point
    where a side does not converge still aborts the suite): as a degenerate
    law naming the vanishing sides when each is zero below an order above
    _LEAD_BOUND, else as insufficient order.
    """
    order, vanishing = None, []
    for label, s in sides.items():
        # the least order, compared only between distinct Fractions
        if order is None or (s.order is not order and s.order < order):
            order = s.order
        if s.is_zero():
            vanishing.append(label)
    if vanishing and all(sides[label].order > _LEAD_BOUND for label in vanishing):
        return CheckReport(name, "numeric", False, order,
                           details=[{"error": "degenerate law", "vanishing": vanishing}])
    if vanishing:
        return _insufficient_order(name, order, "a nonzero term on each side", kind="numeric")
    max_res = max_tail = None
    for d in details:
        # the running maxima keep the first of equal values and a leading NaN,
        # as max() does
        if max_res is None or d["residual"] > max_res:
            max_res = d["residual"]
        if max_tail is None or d["tail"] > max_tail:
            max_tail = d["tail"]
    if max_res is None:
        raise ValueError(f"numeric law {name} has no sample point")
    passed = max_res < tol and max_tail < tol / 10
    return CheckReport(name, "numeric", passed, order, max_res, max_tail, details)


def check_transform_numeric(name: str, f: PuiseuxSeries, g: PuiseuxSeries,
                            spec: TransformSpec) -> CheckReport:
    """Residuals of f(gamma tau) = multiplier * (c tau + d)^weight * g(tau).

    The weight is read once as a float, so a weight beyond the float range
    raises OverflowError before the first evaluation; the factor is
    multiplier * (c tau + d)^weight, as slash_factor(-weight) computes it,
    and multiplier * (1 + 0j) at weight 0.  mobius checks each tau.
    """
    gamma, weight, multiplier = spec.gamma, spec.weight, spec.multiplier
    w = float(weight)
    details = []
    for tau in spec.sample_points:
        tau = complex(tau)
        value, tail, reliable = f.evaluate(mobius(gamma, tau))
        g_value, g_tail, g_reliable = g.evaluate(tau)
        factor = multiplier * (_cz_power(w, gamma, tau) if weight else 1.0 + 0j)
        details.append({"tau": [tau.real, tau.imag],
                        "residual": abs(value - factor * g_value),
                        "tail": tail + abs(factor) * g_tail,
                        "tail_reliable": reliable and g_reliable})
    return _numeric_law(name, {"lhs": f, "rhs": g}, details, spec.tolerance)


# rho(gamma) on the nonvanishing Z_2 characters: c_(i,j)(gamma tau) is the
# multiplier times c_(act_on_pair((i,j), gamma))(tau).  Under T it is
# e^{2 pi i (leading exponent)}: 1/12 for (0,1), -1/24 for (1,1) and (1,0).
_CLOSURE_MULTIPLIERS = {
    T: {(0, 1): cmath.exp(1j * math.pi / 6), (1, 1): cmath.exp(-1j * math.pi / 12),
        (1, 0): cmath.exp(-1j * math.pi / 12)},
    S: {(0, 1): 1 + 0j, (1, 1): 1 + 0j, (1, 0): 1 + 0j},
}


def closure_scan(sector: SectorPair, gamma: ModularMatrix, sample_points,
                 tolerance: float, order=DEFAULT_NUMERIC_ORDER):
    """Check the weight-0 law c_sector(gamma tau) = m c_target(tau), with m the
    multiplier the theory predicts (_CLOSURE_MULTIPLIERS), at every point.

    The ratio at the first point is recorded as the "fitted" detail, null
    where the target's value is 0 (no term below the order, or every term
    underflows there).  The (0,0) sector, which has no multiplier, and a
    target zero below an order above _LEAD_BOUND vanish identically and raise
    DegenerateSectorError; a target zero below a lower order leaves the law
    to report insufficient order.  Returns (target sector, m, report); gamma
    must be S or T.
    """
    if gamma not in _CLOSURE_MULTIPLIERS:
        raise ValueError(f"closure multipliers are known for S and T only, not {gamma.entries()}")
    target = act_on_pair(sector, gamma)
    f = lattice.character(sector, order).series
    g = lattice.character(target, order).series
    m = _CLOSURE_MULTIPLIERS[gamma].get((sector.i, sector.j))
    if m is None or (g.is_zero() and g.order > _LEAD_BOUND):
        raise DegenerateSectorError(f"target sector {target} has identically zero character")
    points = tuple(complex(t) for t in sample_points)
    value = f.evaluate(mobius(gamma, points[0])).value
    g_value = g.evaluate(points[0]).value
    ratio = value / g_value if g_value else None
    report = check_transform_numeric(
        f"closure-({sector.i},{sector.j})-gamma{gamma.entries()}", f, g,
        TransformSpec(gamma, Fraction(0), m, points, tolerance))
    report.details.append({"target": [target.i, target.j], "multiplier": [m.real, m.imag],
                           "fitted": None if ratio is None else [ratio.real, ratio.imag]})
    return target, m, report


# ---------------------------------------------------------------------------
# suites

def identities_suite(exact_order=None) -> list[CheckReport]:
    o_long = Fraction(_given(exact_order, 52))
    o_std = Fraction(_given(exact_order, 34))
    o_deriv = Fraction(_given(exact_order, 24))
    # theta-eta relations; the tau/2 pieces need eta built to twice the target
    # order, and the quotients know no more than o_std, so the rest stop at o_std + 1
    eta = specfun.dedekind_eta(o_std)
    eta2 = specfun.dedekind_eta(2 * o_std)
    eta_double = eta2.rescale(2).truncate(o_std + 1)
    eta_half = eta2.rescale(Fraction(1, 2))
    sectors = {sec: SectorPair(2, *sec) for sec in ((0, 0), (0, 1), (1, 1), (1, 0))}

    rows = [
        _ExactRow("theta1-vanishes", o_long, 50, lambda: specfun.jacobi_theta(1, o_long),
                  lambda: PuiseuxSeries.zero(o_long)),
        _ExactRow("character-(0,0)-vanishes", o_long, 50,
                  lambda: lattice.character(sectors[0, 0], o_long).series,
                  lambda: PuiseuxSeries.zero(o_long)),
    ]
    rows += [_ExactRow(f"character-({i},{j})-eta-theta", o_std, 30,
                       lambda sp=sectors[i, j]: lattice.character(sp, o_std).series,
                       lambda sp=sectors[i, j]: lattice.eta_theta_form(sp, o_std))
             for i, j in ((0, 1), (1, 1), (1, 0))]
    rows += [
        _ExactRow("theta2-eta-relation", o_std, 30, lambda: specfun.jacobi_theta(2, o_std),
                  lambda: (eta_double ** 2 / eta).scale(2)),
        _ExactRow("theta3-eta-relation", o_std, 30, lambda: specfun.jacobi_theta(3, o_std),
                  lambda: (specfun.dedekind_eta(o_std + 1) ** 5
                           / (eta_double ** 2 * eta_half ** 2))),
        _ExactRow("theta4-eta-relation", o_std, 30, lambda: specfun.jacobi_theta(4, o_std),
                  lambda: eta_half ** 2 / eta),
    ]
    rows += [_ExactRow(f"l0-insertion-({i},{j})", o_deriv, 20,
                       lambda sp=sp: lattice.l0_inserted_trace(sp, o_deriv),
                       lambda sp=sp: lattice.character(sp, o_deriv).series.q_d_dq())
             for (i, j), sp in sectors.items()]
    # paper-literal variant of the (sigma,1) oscillator factor: prod(1+q^n)
    # instead of the partition generating function; documented discrepancy.
    rows.append(_ExactRow(
        "character-(1,0)-distinct-parts-variant (expected fail)", o_std, 30,
        lambda: (specfun.distinct_parts_product(o_std + 1)
                 * lattice.lattice_sum(sectors[1, 0], o_std + 1)
                 ).shifted(Fraction(1, 12)).truncate(o_std),
        lambda: lattice.eta_theta_form(sectors[1, 0], o_std), expected_fail=True))
    return _exact_rows(rows)


def transforms_suite(numeric_order=None, tol=None, sample_points=None) -> list[CheckReport]:
    order = Fraction(_given(numeric_order, DEFAULT_NUMERIC_ORDER))
    points = tuple(sample_points or (2j, 1 + 2j))
    t_tol = _given(tol, 1e-10)
    eta = specfun.dedekind_eta(order)

    def half_argument_rhs():
        eta2 = specfun.dedekind_eta(2 * order + 2)
        return (specfun.dedekind_eta(order + 1) ** 3
                / (eta2.rescale(Fraction(1, 2)) * eta2.rescale(2))).truncate(order)

    return [
        check_transform_numeric("eta-T-law", eta, eta, TransformSpec(
            T, Fraction(0), cmath.exp(1j * math.pi / 12), points, t_tol)),
        # eta(-1/tau) = (-i tau)^{1/2} eta(tau) = e^{-i pi/4} tau^{1/2} eta(tau)
        check_transform_numeric("eta-S-law", eta, eta, TransformSpec(
            S, Fraction(1, 2), cmath.exp(-1j * math.pi / 4), points, t_tol)),
        # half-argument law e^{-i pi/24} eta((tau+1)/2) = eta(tau)^3 / (eta(tau/2) eta(2 tau)),
        # exact on the 1/48 grid: the Euler product in q^{1/2} under tau -> tau + 1
        # against a quotient of pentagonal products at three scales
        *_exact_rows([_ExactRow("eta-half-argument-law", order, "above 1/48",
                                lambda: specfun.eta_half_period_series(order),
                                half_argument_rhs)]),
    ]


def closure_suite(numeric_order=None, tol=None, sample_points=None) -> list[CheckReport]:
    order = Fraction(_given(numeric_order, DEFAULT_NUMERIC_ORDER))
    tolerance = _given(tol, DEFAULT_TOLERANCE)
    points = tuple(sample_points or DEFAULT_SAMPLE_POINTS)
    reports = []

    # S-closure of the supertrace vector at weight 0
    c01 = lattice.character(SectorPair(2, 0, 1), order).series
    c11 = lattice.character(SectorPair(2, 1, 1), order).series
    c10 = lattice.character(SectorPair(2, 1, 0), order).series
    s_points = tuple(sample_points or (2j, 3j))
    reports.append(check_transform_numeric(
        "S-closure-(0,1)->(1,0)", c01, c10,
        TransformSpec(S, Fraction(0), 1.0 + 0j, s_points, tolerance)))
    reports.append(check_transform_numeric(
        "S-closure-(1,1)->(1,1)", c11, c11,
        TransformSpec(S, Fraction(0), 1.0 + 0j, s_points, tolerance)))

    for sec, gamma in (((0, 1), T), ((1, 1), T), ((1, 0), T),
                       ((0, 1), S), ((1, 1), S)):
        sp = SectorPair(2, *sec)
        reports.append(closure_scan(sp, gamma, points, tolerance, order)[2])
    return reports


def eisenstein_suite(exact_order=None, numeric_order=None, tol=None) -> list[CheckReport]:
    o_exact = Fraction(_given(exact_order, DEFAULT_EXACT_ORDER))
    order = Fraction(_given(numeric_order, DEFAULT_NUMERIC_ORDER))
    tolerance = _given(tol, DEFAULT_TOLERANCE)
    # -B_k/k! written out, not computed the way eisenstein builds it
    constants = {2: Fraction(-1, 12), 4: Fraction(1, 720), 6: Fraction(-1, 30240)}
    reports = _exact_rows(_ExactRow(
        f"E{k}-constant-term", o_exact, "above 0",
        lambda k=k: PuiseuxSeries.monomial(
            specfun.eisenstein(k, o_exact).coefficient_at(0), 0, o_exact),
        lambda k=k: PuiseuxSeries.monomial(constants[k], 0, o_exact))
        for k in (2, 4, 6))
    for k in (4, 6):
        ek = specfun.eisenstein(k, order)
        reports.append(check_transform_numeric(
            f"E{k}-S-modularity", ek, ek,
            TransformSpec(S, Fraction(k), 1.0 + 0j, (2j,), tolerance)))

    # E2 quasi-modularity: (E2(-1/tau) - tau^2 E2(tau))/tau against its predicted value
    predicted = 1j / (2 * math.pi)
    e2 = specfun.eisenstein(2, order)
    measured, details = [], []
    for tau in (2j, 3j):
        lv = e2.evaluate(-1 / tau)
        rv = e2.evaluate(tau)
        const = (lv.value - tau ** 2 * rv.value) / tau
        measured.append([const.real, const.imag])
        tail = (lv.tail_estimate + abs(tau) ** 2 * rv.tail_estimate) / abs(tau)
        details.append({"tau": [tau.real, tau.imag], "residual": abs(const - predicted),
                        "tail": tail})
    rep = _numeric_law("E2-S-defect-constancy", {"E2": e2}, details, tolerance)
    rep.details.append({"predicted_defect_over_tau": [predicted.real, predicted.imag],
                        "measured_defect_over_tau": measured,
                        "note": "E2 = -E2_classical/12 and E2_classical(-1/tau) = "
                                "tau^2 E2_classical(tau) + 12 tau/(2 pi i), so the "
                                "defect/tau is -1/(2 pi i) = i/(2 pi)"})
    reports.append(rep)
    return reports


def qk_suite(exact_order=None, numeric_order=None, tol=None) -> list[CheckReport]:
    o_exact = Fraction(_given(exact_order, DEFAULT_EXACT_ORDER))
    o_num = Fraction(_given(numeric_order, 400))
    tolerance = _given(tol, 1e-6)
    mu_lam = specfun.TwistParams(1, 2, 0, 1)  # mu = -1, lambda = 1
    low = (Fraction(0), Fraction(1, 2))

    def q2_low_coefficients():
        q2 = specfun.q_twisted(2, mu_lam, o_exact)
        return PuiseuxSeries.from_terms([(e, q2.coefficient_at(e)) for e in low], 1)

    reports = _exact_rows([
        _ExactRow("Q0-is-minus-one", o_exact, "above 0",
                  lambda: specfun.q_twisted(0, specfun.TwistParams(0, 1, 1, 2), o_exact),
                  lambda: PuiseuxSeries.monomial(Fraction(-1), 0, o_exact)),
        _ExactRow("Q1-(mu=-1,lam=1)-vanishes", o_exact, "above 1/2",
                  lambda: specfun.q_twisted(1, mu_lam, o_exact),
                  lambda: PuiseuxSeries.zero(o_exact)),
        _ExactRow("Q2-(mu=-1,lam=1)-low-coefficients", o_exact, "above 1/2",
                  q2_low_coefficients,
                  lambda: PuiseuxSeries.from_terms(zip(low, (Fraction(1, 24), 1)), 1)),
    ])

    # tau -> tau + T periodicity, exact at series level; Q0 = -1 needs order above 0
    name = "Qk-tau-periodicity"
    if not _covers(o_exact, "above 0"):
        reports.append(_insufficient_order(name, o_exact, "above 0"))
    else:
        twists = [specfun.TwistParams(j, T_ord, l, T1_ord) for T_ord in (1, 2)
                  for T1_ord in (1, 2) for j in range(T_ord) for l in range(T1_ord)]
        detail = []
        for k in range(5):
            for tw in twists:
                if k >= 1 and tw.trivial:
                    continue
                qk = specfun.q_twisted(k, tw, o_exact)
                if not qk.shift_tau(tw.T).equals(qk):
                    detail.append({"k": k, "twist": [tw.j, tw.T, tw.l, tw.T1]})
        reports.append(CheckReport(name, "exact-series", not detail, o_exact, details=detail))

    gamma = ModularMatrix(1, 0, 2, 1)
    reports.append(CheckReport("Q2-gamma-in-Gamma(2,1)", "exact-series", is_in_gamma(gamma, 2, 1),
                               Fraction(0), details=[{"gamma": list(gamma.entries())}]))
    q2n = specfun.q_twisted(2, mu_lam, o_num)
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
