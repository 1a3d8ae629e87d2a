import argparse
import cmath
import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmodver import cli, lattice, specfun
from qmodver.modgroup import S, T, ModularMatrix, SectorPair
from qmodver.series import PuiseuxSeries
from qmodver.verify import (SUITE_NAMES, DegenerateSectorError,
                            TransformSpec, WrongDomainError, check_series_equal,
                            check_transform_numeric, closure_scan, run_suite,
                            transforms_suite)
from test_law_path import reference_transform_numeric


# the run summary that `check` prints on stderr after its reports
_SUMMARY = re.compile(r"(\d+) pass, (\d+) xfail, (\d+) fail, (\d+) abort in \d+\.\d{3} s")
_ORDER_ZERO_NOTE = ("note: at --order 0 no series keeps a term: each exact check reports "
                    "insufficient order, and each numeric law fails on a vanishing side, "
                    "or its suite aborts where a sample point fails the convergence check\n")


def before_summary(err: str) -> str:
    """The stderr of a `check` run less its last line, the run summary, which
    must be there."""
    *notes, last = err.splitlines()
    assert _SUMMARY.fullmatch(last), err
    return "".join(f"{line}\n" for line in notes)


class TestCheckSeriesEqual:
    def test_theta2_relation_passes(self):
        eta = specfun.dedekind_eta(34)
        eta2 = specfun.dedekind_eta(68).rescale(2)
        rep = check_series_equal(
            "t2", specfun.jacobi_theta(2, 34),
            (eta2 ** 2 * eta.invert()).scale(2), required_order=30)
        assert rep.passed and rep.kind == "exact-series"

    def test_mismatch_located(self):
        rep = check_series_equal("t4-vs-t3", specfun.jacobi_theta(4, 30),
                                 specfun.jacobi_theta(3, 30))
        assert not rep.passed
        assert rep.details[0]["first_mismatch_exponent"] == "1/2"
        assert rep.details[0]["lhs"] == "-2" and rep.details[0]["rhs"] == "2"

    def test_insufficient_order(self):
        a = PuiseuxSeries.one(2)
        rep = check_series_equal("short", a, a, required_order=30)
        assert not rep.passed
        assert rep.details[0]["error"] == "insufficient order"

    def test_rejects_complex_domain(self):
        a = PuiseuxSeries.one(5)
        with pytest.raises(WrongDomainError):
            check_series_equal("bad", a, a.to_complex())


class TestCheckTransformNumeric:
    def test_eta_t_law(self):
        eta = specfun.dedekind_eta(60).to_complex()
        spec = TransformSpec(T, F(0), cmath.exp(1j * math.pi / 12), (2j, 1 + 2j), 1e-10)
        rep = check_transform_numeric("eta-T", eta, eta, spec)
        assert rep.passed and rep.max_residual < 1e-10
        assert rep.tail_estimate < 1e-11

    def test_character_s_closure(self):
        f = lattice.character(SectorPair(2, 0, 1), 60).series.to_complex()
        g = lattice.character(SectorPair(2, 1, 0), 60).series.to_complex()
        spec = TransformSpec(S, F(0), 1 + 0j, (2j, 3j), 1e-8)
        rep = check_transform_numeric("S-closure", f, g, spec)
        assert rep.passed

    def test_honest_failure_reports_residual(self):
        f = specfun.eisenstein(4, 40).to_complex()
        g = specfun.eisenstein(6, 40).to_complex()
        spec = TransformSpec(S, F(4), 1 + 0j, (2j,), 1e-8)
        rep = check_transform_numeric("wrong", f, g, spec)
        assert not rep.passed and rep.max_residual > 1e-3

    # E2(gamma tau) = (c tau + d)^2 E2(tau) + (i/2 pi) c (c tau + d) in this
    # code's normalization: the law holds with that defect only, not with none
    # or with the opposite sign
    @pytest.mark.parametrize("tau", [0.3 + 1.2j, 2j], ids=str)
    @pytest.mark.parametrize("gamma", [S, ModularMatrix(1, 0, 1, 1), ModularMatrix(2, 1, 1, 1),
                                       ModularMatrix(1, 0, 2, 1)],
                             ids=lambda m: ",".join(map(str, m.entries())))
    @pytest.mark.parametrize("defect, holds", [(1j / (2 * math.pi), True), (0j, False),
                                               (-1j / (2 * math.pi), False)],
                             ids=["i/2pi", "0", "-i/2pi"])
    def test_e2_affine_law(self, gamma, tau, defect, holds):
        e2 = specfun.eisenstein(2, 60)
        spec = TransformSpec(gamma, F(2), 1 + 0j, (tau,), 1e-8, defect)
        rep = check_transform_numeric("E2-affine", e2, e2, spec)
        assert rep.passed is holds
        if not holds:
            assert rep.max_residual > 0.1


_LAW_SERIES = {"eta": specfun.dedekind_eta(40).to_complex(),
               "E4": specfun.eisenstein(4, 40).to_complex(),
               "char": lattice.character(SectorPair(2, 0, 1), 40).series.to_complex()}
_taus = st.builds(complex, st.floats(-1.5, 1.5), st.floats(0.8, 3))


@settings(max_examples=200, deadline=None)
@given(f=st.sampled_from(sorted(_LAW_SERIES)), g=st.sampled_from(sorted(_LAW_SERIES)),
       gamma=st.sampled_from([S, T, ModularMatrix(1, 0, 2, 1), ModularMatrix(1, 0, 3, 1)]),
       weight=st.sampled_from([F(0), F(1, 2), F(2), F(4), F(6)]),
       multiplier=st.sampled_from([1 + 0j, cmath.exp(-1j * math.pi / 4), 0.5 - 2j]),
       points=st.lists(_taus, min_size=1, max_size=3))
def test_transform_numeric_matches_inline_factor_reference(f, g, gamma, weight,
                                                           multiplier, points):
    spec = TransformSpec(gamma, weight, multiplier, tuple(points), 1e-8)
    args = (f"{f}-{g}", _LAW_SERIES[f], _LAW_SERIES[g], spec)
    try:
        ref = reference_transform_numeric(*args)
    except Exception as exc:  # e.g. slow convergence at a gamma image
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            check_transform_numeric(*args)
        return
    got = check_transform_numeric(*args)
    assert repr(got.max_residual) == repr(ref.max_residual)
    assert repr(got.tail_estimate) == repr(ref.tail_estimate)
    assert repr(got.details) == repr(ref.details)
    assert (got.passed, got.order_used) == (ref.passed, ref.order_used)


class TestClosureScan:
    def test_s_scan_from_untwisted(self):
        target, scalar, rep = closure_scan(
            SectorPair(2, 0, 1), S, (2j, 3j, 1 + 2j), 1e-8)
        assert target == SectorPair(2, 1, 0)
        assert abs(scalar - 1) < 1e-8
        assert rep.passed

    def test_t_scan_scalars(self):
        target, scalar, rep = closure_scan(
            SectorPair(2, 1, 1), T, (2j, 3j, 1 + 2j), 1e-8)
        assert target == SectorPair(2, 1, 0)
        assert abs(scalar - cmath.exp(-1j * math.pi / 12)) < 1e-8
        assert rep.passed

        target, scalar, rep = closure_scan(
            SectorPair(2, 0, 1), T, (2j, 3j, 1 + 2j), 1e-8)
        assert target == SectorPair(2, 0, 1)
        assert abs(scalar - cmath.exp(1j * math.pi / 6)) < 1e-8
        assert rep.passed

    def test_a_target_off_by_a_constant_factor_fails(self, monkeypatch):
        # a fitted multiplier would absorb the factor 2 and pass with 0.5
        character = lattice.character

        def doubled(sector, order):
            data = character(sector, order)
            if (sector.i, sector.j) != (1, 0):
                return data
            return data._replace(series=data.series.scale(2))

        monkeypatch.setattr(lattice, "character", doubled)
        target, m, rep = closure_scan(SectorPair(2, 0, 1), S, (2j, 3j), 1e-8)
        assert (target, m) == (SectorPair(2, 1, 0), 1)
        assert not rep.passed and rep.max_residual > 0.1
        assert rep.details[-1]["fitted"] == pytest.approx([0.5, 0.0], abs=1e-12)

    @pytest.mark.parametrize("sector,gamma", [((0, 1), T), ((1, 1), T), ((1, 0), T),
                                              ((0, 1), S), ((1, 1), S)])
    def test_predicted_multiplier_agrees_with_the_fit(self, sector, gamma):
        target, m, rep = closure_scan(SectorPair(2, *sector), gamma, (2j, 3j, 1 + 2j), 1e-8)
        info = rep.details[-1]
        assert rep.passed and info["target"] == [target.i, target.j]
        assert info["multiplier"] == [m.real, m.imag]
        assert abs(complex(*info["fitted"]) - m) < 4e-16

    def test_only_s_and_t_have_predicted_multipliers(self):
        with pytest.raises(ValueError, match="S and T only"):
            closure_scan(SectorPair(2, 0, 1), ModularMatrix(1, 0, 2, 1), (2j,), 1e-8)

    def test_degenerate_target(self):
        # (0,0) is fixed by T and its character vanishes
        with pytest.raises(DegenerateSectorError):
            closure_scan(SectorPair(2, 0, 0), T, (2j,), 1e-8)

    def test_a_target_zero_below_a_low_order_reports_insufficient_order(self):
        # at order 0 the (0,1) character keeps no term, so nothing says that
        # the target, itself under T, vanishes identically
        target, _, rep = closure_scan(SectorPair(2, 0, 1), T, (1j,), 1e-8, order=0)
        assert target == SectorPair(2, 0, 1) and not rep.passed
        assert rep.details[0] == {"error": "insufficient order", "have": "0",
                                  "need": "a nonzero term on each side"}
        assert rep.details[-1]["fitted"] is None
        # a target whose every term underflows at the point has no ratio either
        rep = closure_scan(SectorPair(2, 0, 1), T, (2000j,), 1e-8)[2]
        assert rep.details[-1]["fitted"] is None
        # (0,0) has no multiplier at any order
        for gamma in (T, S):
            with pytest.raises(DegenerateSectorError):
                closure_scan(SectorPair(2, 0, 0), gamma, (1j,), 1e-8, order=0)


class TestRunSuite:
    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            run_suite("nonsense")

    def test_identities_pass(self):
        reports, status = run_suite("identities")
        assert status == 0
        xfails = [r for r in reports if r.expected_fail]
        assert len(xfails) == 1 and not xfails[0].passed

    def test_low_order_reports_insufficiency(self):
        reports, status = run_suite("identities", exact_order=2)
        assert status == 1
        assert any(d.get("error") == "insufficient order"
                   for r in reports for d in r.details if isinstance(d, dict))

    @pytest.mark.parametrize("suite", ["identities", "eisenstein", "qk"])
    def test_order_zero_reports_each_exact_check(self, capsys, suite):
        default = {r.name for r in run_suite(suite)[0] if r.kind == "exact-series"}
        assert cli.main(["check", "--suite", suite, "--order", "0", "--format", "json"]) == 1
        out, err = capsys.readouterr()
        assert before_summary(err) == _ORDER_ZERO_NOTE
        docs = [json.loads(line) for line in out.splitlines()]
        exact = {d["name"]: d for d in docs if d["kind"] == "exact-series"}
        assert set(exact) == default
        short = {name for name, d in exact.items()
                 if d["details"][:1] and d["details"][0].get("error") == "insufficient order"}
        # the Gamma(2,1) membership needs no coefficient
        assert default - short <= {"Q2-gamma-in-Gamma(2,1)"}
        for name in short:
            assert exact[name]["details"][0]["have"] == "0"
            assert not exact[name]["passed"]
        # every numeric law has a side truncated to nothing
        numeric = {d["name"]: d for d in docs if d["kind"] == "numeric"}
        assert set(numeric) == {
            "identities": set(),
            "eisenstein": {"E2-S-defect-constancy", "E4-S-modularity", "E6-S-modularity"},
            "qk": {"Q2-weight-2-modularity"}}[suite]
        for d in numeric.values():
            assert not d["passed"] and d["max_residual"] is None
            assert d["details"][0] == {"error": "insufficient order", "have": "0",
                                       "need": "a nonzero term on each side"}

    def test_order_zero_all_suites(self, capsys):
        # eta truncated at order 0 is 0, so transforms and closure abort
        # (exit 3); the exact suites still report every check
        assert cli.main(["check", "--suite", "all", "--order", "0"]) == 3
        out, err = capsys.readouterr()
        assert before_summary(err) == _ORDER_ZERO_NOTE
        lines = out.splitlines()
        assert "ABORT [numeric] transforms-suite" in lines
        assert "ABORT [numeric] closure-suite" in lines
        for name in ("theta1-vanishes", "E2-constant-term", "Q0-is-minus-one"):
            assert f"FAIL  [exact-series] {name}" in lines
        reports, status = run_suite("all", exact_order=0)
        assert status == 1
        assert [r.name for r in reports] == [r.name for r in run_suite("all")[0]]

    def test_order_zero_all_suites_at_a_convergent_point(self, capsys):
        # at tau = i every sample point converges, so no suite aborts and
        # every row is reported
        assert cli.main(["check", "--suite", "all", "--order", "0", "--tau", "0,1"]) == 1
        out, err = capsys.readouterr()
        assert before_summary(err) == _ORDER_ZERO_NOTE
        names = [line.split("] ", 1)[1].split("  ")[0] for line in out.splitlines()]
        assert names == [r.name for r in run_suite("all")[0]]

    def test_all_passes(self):
        reports, status = run_suite("all")
        assert status == 0
        assert all(r.passed or r.expected_fail for r in reports)

    def test_reports_deterministic(self):
        a, _ = run_suite("eisenstein")
        b, _ = run_suite("eisenstein")
        assert [json.dumps(r.to_json_dict()) for r in a] == \
               [json.dumps(r.to_json_dict()) for r in b]

    def test_numeric_honesty_invariant(self):
        reports, _ = run_suite("all")
        for r in reports:
            if r.kind == "numeric" and r.passed:
                assert r.tail_estimate is not None


class TestCli:
    def test_expand_text(self, capsys):
        assert cli.main(["expand", "--series", "eta", "--order", "3"]) == 0
        out = capsys.readouterr().out
        assert "1/24\t1" in out

    def test_nonpositive_orders(self, capsys):
        assert cli.main(["expand", "--series", "eta", "--order", "0"]) == 0
        assert capsys.readouterr().out == "# O(q^(0))\n"
        # the character builds its oscillator factor one order higher, at 0
        # here, where partition_gf is the zero series as every builder is
        assert cli.main(["char", "--pair", "0,1", "--order", "-1"]) == 0
        assert capsys.readouterr() == ("# O(q^(-1))\n", "")
        assert cli.main(["expand", "--series", "char:0,1", "--order", "-1"]) == 0
        assert capsys.readouterr() == ("# O(q^(-1))\n", "")

    def test_expand_help_lists_every_series_spec(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["expand", "--help"])
        out = " ".join(capsys.readouterr().out.split())
        for spec in ("eta", "theta1..theta4", "E<k>", "Q<k>:j,T,l,T1", "char:i,j",
                     "Q<k>:0,1,0,1 is E<k>"):
            assert spec in out, spec

    def test_expand_json_schema(self, capsys):
        assert cli.main(["expand", "--series", "theta3", "--order", "4",
                         "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"ramification", "offset", "order", "domain", "terms"}
        s = PuiseuxSeries.from_json_dict(doc)
        assert s.equals(specfun.jacobi_theta(3, 4))

    def test_expand_q_requires_twist(self, capsys):
        assert cli.main(["expand", "--series", "Q2", "--order", "3"]) == 2

    @pytest.mark.parametrize("argv, forms", [
        (["expand", "--series", "Q2", "--order", "3"], "--twist or Q2:j,T,l,T1"),
        # transform has no --twist flag, so the message offers only the inline form
        (["transform", "--gamma", "1,1,0,1", "--lhs", "Q2", "--rhs", "eta", "--tau", "0,2"],
         "Q2:j,T,l,T1"),
    ], ids=["expand", "transform"])
    def test_a_missing_twist_names_the_forms_the_command_accepts(self, capsys, argv, forms):
        assert cli.main(argv) == 2
        assert capsys.readouterr() == ("", f"error: Q2 needs a twist j,T,l,T1 ({forms})\n")

    @pytest.mark.parametrize("argv, spec", [
        (["transform", "--gamma", "0,-1,1,0", "--weight", "1/2", "--multiplier",
          "0.7071067811865476,-0.7071067811865476", "--lhs", "eta:junk", "--rhs", "eta",
          "--tau", "0,1"], "eta:junk"),
        (["expand", "--series", "E4:1,2"], "E4:1,2"),
        (["expand", "--series", "theta3:x"], "theta3:x"),
        (["expand", "--series", "eta:"], "eta:")], ids=["transform", "E4", "theta3", "eta"])
    def test_an_argument_on_a_series_that_takes_none_is_a_usage_error(self, capsys, argv,
                                                                     spec):
        assert cli.main(argv) == 2
        name = spec.partition(":")[0]
        assert capsys.readouterr() == ("", f"error: series {name} takes no argument, "
                                           f"got {spec!r}\n")

    def test_a_twist_given_inline_and_by_flag_is_a_usage_error(self, capsys):
        assert cli.main(["expand", "--series", "Q2:1,2,0,1", "--twist", "0,1,1,2"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: 'Q2:1,2,0,1' gives a twist inline")
        # either way alone builds the same series
        assert cli.main(["expand", "--series", "Q2:1,2,0,1", "--order", "3"]) == 0
        inline = capsys.readouterr()
        assert cli.main(["expand", "--series", "Q2", "--twist", "1,2,0,1", "--order", "3"]) == 0
        assert capsys.readouterr() == inline and inline.err == ""

    @pytest.mark.parametrize("spec", ["E2", "eta", "theta3", "char:0,1"])
    def test_twist_on_a_series_other_than_q_gives_a_note(self, capsys, spec):
        assert cli.main(["expand", "--series", spec, "--order", "3"]) == 0
        plain = capsys.readouterr()
        assert cli.main(["expand", "--series", spec, "--twist", "1,2,0,1", "--order", "3"]) == 0
        assert capsys.readouterr() == (
            plain.out, f"note: --twist is ignored by series {spec.partition(':')[0]}\n")

    def test_char_json(self, capsys):
        assert cli.main(["char", "--pair", "1,0", "--order", "3",
                         "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["sector"] == [1, 0]
        assert doc["central_charge"] == "-2"
        s = PuiseuxSeries.from_json_dict(doc)
        assert s.equals(lattice.character(SectorPair(2, 1, 0), 3).series)

    def test_check_exit_codes(self, capsys):
        assert cli.main(["check", "--suite", "transforms"]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            cli.main(["check", "--suite", "bogus"])
        assert exc.value.code == 2

    def test_check_json_lines(self, capsys):
        assert cli.main(["check", "--suite", "eisenstein", "--format", "json"]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
        for line in lines:
            doc = json.loads(line)
            assert {"name", "kind", "passed", "order_used",
                    "max_residual", "tail_estimate", "details"} <= set(doc)

    def test_transform_subcommand(self, capsys):
        assert cli.main(["transform", "--gamma", "0,-1,1,0", "--weight", "6",
                         "--lhs", "E6", "--rhs", "E6", "--tau", "0,2",
                         "--tol", "1e-8"]) == 0
        assert cli.main(["transform", "--gamma", "0,-1,1,0", "--weight", "4",
                         "--lhs", "E4", "--rhs", "E6", "--tau", "0,2",
                         "--tol", "1e-8"]) == 1
        # theta1 vanishes identically: no vacuous pass on two zero sides
        capsys.readouterr()
        assert cli.main(["transform", "--gamma", "0,-1,1,0", "--weight", "4",
                         "--lhs", "theta1", "--rhs", "theta1", "--tau", "0,2"]) == 1
        assert capsys.readouterr().out.startswith(
            "FAIL  [numeric] transform-theta1-gamma(0, -1, 1, 0)-theta1\n")

    @pytest.mark.parametrize("lhs, rhs, vanishing", [
        ("theta1", "theta1", ["lhs", "rhs"]),
        ("char:0,0", "E4", ["lhs"]),
        ("E4", "theta1", ["rhs"])])
    def test_identically_vanishing_side_makes_a_degenerate_law(self, capsys, lhs, rhs,
                                                                vanishing):
        # theta1 and character (0,0) are zero at every order (see the
        # identities suite): no order helps, so the law is degenerate
        assert cli.main(["transform", "--gamma", "0,-1,1,0", "--weight", "4",
                         "--lhs", lhs, "--rhs", rhs, "--tau", "0,2", "--format", "json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert not doc["passed"] and doc["max_residual"] is None
        assert doc["details"] == [{"error": "degenerate law", "vanishing": vanishing}]

    def test_every_built_series_vanishes_or_has_a_term_at_most_q1(self):
        # the premise of the degenerate-law rule, over the CLI's vocabulary
        specs = ["eta", "theta1", "theta2", "theta3", "theta4", "E2", "E4", "E6", "E12"]
        specs += [f"char:{i},{j}" for i in (0, 1) for j in (0, 1)]
        specs += [f"Q{k}:{j},{T},{l},{T1}" for k in range(6) for T in (1, 2, 3, 4)
                  for T1 in (1, 2, 3, 4) for j in range(T) for l in range(T1)
                  if k == 0 or (j, l) != (0, 0)]
        for spec in specs:
            s = cli.build_series(spec, F(6))
            assert s.is_zero() or s.lead() <= 1, spec

    def test_side_truncated_to_nothing_reports_insufficient_order(self, capsys):
        # E4 below order 0 keeps no term, but it has one at q^0
        assert cli.main(["check", "--suite", "eisenstein", "--order", "0",
                         "--format", "json"]) == 1
        docs = {d["name"]: d for d in map(json.loads, capsys.readouterr().out.splitlines())}
        for name in ("E4-S-modularity", "E6-S-modularity", "E2-S-defect-constancy"):
            assert docs[name]["details"][0] == {"error": "insufficient order", "have": "0",
                                                "need": "a nonzero term on each side"}
        # at an order of at most 1 a zero side may only be truncated
        assert cli.main(["transform", "--gamma", "0,-1,1,0", "--weight", "4", "--lhs", "E4",
                         "--rhs", "theta1", "--tau", "0,2", "--order", "1",
                         "--format", "json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["details"][0]["error"] == "insufficient order"

    def test_convergence_exit(self, capsys):
        # tau with tiny imaginary part: |q|^step too close to 1
        code = cli.main(["transform", "--gamma", "1,1,0,1", "--weight", "0",
                         "--lhs", "eta", "--rhs", "eta", "--tau", "0,0.001"])
        assert code == 3

    @pytest.mark.parametrize("argv, re_tau", [
        # w * e has an infinite imaginary part in eta's far terms, where
        # cmath.exp would raise a domain error
        (["--lhs", "eta", "--rhs", "eta", "--tau", "1e306,10"], "1e+306"),
        # tau + 1 rounds to tau, so the T-law of E4 read residual 0 and PASS
        (["--weight", "4", "--lhs", "E4", "--rhs", "E4", "--tau", "1e17,1"], "1e+17"),
    ], ids=["eta-1e306", "E4-1e17"])
    def test_unresolvable_phase_exits_3(self, capsys, argv, re_tau):
        assert cli.main(["transform", "--gamma", "1,1,0,1"] + argv) == 3
        out, err = capsys.readouterr()
        assert "PASS" not in out
        assert err.startswith(f"error: Re(tau) = {re_tau} is too large")


class TestCliFlags:
    @pytest.mark.parametrize("argv", [
        ["check", "--suite", "closure", "--tau", "-0.5,1"],
        ["check", "--suite", "closure", "--tau", "0.2,2", "--tau", "-.25,1.5"],
        ["transform", "--gamma", "1,0,2,1", "--weight", "2", "--lhs", "Q2:1,2,0,1",
         "--rhs", "Q2:1,2,0,1", "--order", "400", "--tau", "-0.3,1.2"],
        # eta(tau + 12) = e^(i pi) eta(tau): a multiplier with a negative real part
        ["transform", "--gamma", "1,12,0,1", "--lhs", "eta", "--rhs", "eta",
         "--multiplier", "-1,0", "--tau", "-0.5,1"],
    ], ids=["check", "check-two-taus", "transform-tau", "transform-multiplier"])
    def test_a_negative_pair_may_follow_its_flag_after_a_space(self, capsys, argv):
        assert cli.main(argv) == 0
        spaced = capsys.readouterr()
        # the form that always worked: --tau=-0.5,1
        joined = " ".join(argv).replace("--tau ", "--tau=")
        joined = joined.replace("--multiplier ", "--multiplier=")
        assert cli.main(joined.split()) == 0
        again = capsys.readouterr()
        assert again.out == spaced.out
        # check ends its stderr with a run summary, which reads the clock
        errs = [before_summary(r.err) if argv[0] == "check" else r.err for r in (spaced, again)]
        assert "FAIL" not in spaced.out and errs == ["", ""]

    @pytest.mark.parametrize("argv, code, message", [
        # -T^-1 maps tau to tau - 1, under which eta's multiplier is not 1
        (["transform", "--gamma", "-1,1,0,-1", "--lhs", "eta", "--rhs", "eta", "--tau", "0,1"],
         1, ""),
        # -T with eta's multiplier e^{i pi/12}: exit 0, as in CI
        (["transform", "--gamma", "-1,-1,0,-1", "--lhs", "eta", "--rhs", "eta",
          "--multiplier", "0.9659258262890683,0.25881904510252074", "--tau", "0.2,1.1",
          "--tau", "-0.4,1.3"], 0, ""),
        (["char", "--pair", "-1,0"], 2, "error: sector exponents must be reduced mod n\n"),
        (["expand", "--series", "Q2", "--twist", "-1,2,0,1"], 2,
         "error: twist exponents must satisfy 0 <= j < T, 0 <= l < T1\n"),
        (["transform", "--gamma", "0,-1,1,0", "--weight", "-1/2", "--lhs", "eta",
          "--rhs", "eta", "--tau", "-.5,1"], 1, ""),
    ], ids=["gamma", "gamma-minus-T", "pair", "twist", "weight"])
    def test_a_negative_value_may_follow_any_flag_after_a_space(self, capsys, argv, code,
                                                                message):
        assert cli.main(argv) == code
        spaced = capsys.readouterr()
        assert spaced.err == message and "expected one argument" not in spaced.err
        # the same run as with --flag=VALUE
        joined = [f"{a}={b}" if a.startswith("--") else None for a, b in zip(argv, argv[1:])]
        eq = [argv[0]] + [j for j in joined if j is not None]
        assert cli.main(eq) == code
        assert capsys.readouterr() == spaced

    @pytest.mark.parametrize("argv", [["--mult", "-1,0"], ["--mult", "1,0"], ["--mult=-1,0"],
                                      ["--multi", "-0.5,1"], ["--t", "0,1"]])
    def test_a_flag_prefix_is_refused_the_same_way_every_time(self, capsys, argv):
        base = ["transform", "--gamma", "1,12,0,1", "--lhs", "eta", "--rhs", "eta"]
        with pytest.raises(SystemExit) as exc:
            cli.main(base + ["--tau", "0,1"] + argv)
        assert exc.value.code == 2
        assert "error: unrecognized arguments: --" in capsys.readouterr().err

    def test_help_says_that_flags_are_spelled_in_full(self):
        parser = cli.make_parser()
        commands = next(a for a in parser._actions
                        if isinstance(a, argparse._SubParsersAction)).choices
        for p in [parser, *commands.values()]:
            assert not p.allow_abbrev
            assert "spelled in full" in " ".join(p.format_help().split())

    @pytest.mark.parametrize("order", ["-1", "-5/6", "-10001"])
    def test_check_refuses_a_negative_order_with_its_meaning(self, capsys, order):
        assert cli.main(["check", "--suite", "all", "--order", order]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"error: check needs --order >= 0, got {order}: below order 0 no "
                       "series keeps a term, and at 0 each check reports that its order is "
                       "insufficient\n")

    def test_the_spaced_multiplier_is_the_one_read(self, capsys):
        argv = ["transform", "--gamma", "1,12,0,1", "--lhs", "eta", "--rhs", "eta", "--tau", "0,1"]
        assert cli.main(argv + ["--multiplier", "-1,0"]) == 0
        assert cli.main(argv + ["--multiplier", "1,0"]) == 1

    @pytest.mark.parametrize("value, message", [
        ("-1", "expected re,im"), ("-inf,1", "re,im must be finite"), ("-0.5", "expected re,im")])
    def test_a_bad_negative_pair_is_still_a_usage_error(self, capsys, value, message):
        with pytest.raises(SystemExit) as exc:
            cli.main(["check", "--suite", "closure", "--tau", value])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["nan", "-1", "0", "inf"])
    @pytest.mark.parametrize("argv", [
        ["check", "--suite", "closure"],
        ["transform", "--gamma", "0,-1,1,0", "--weight", "4",
         "--lhs", "E4", "--rhs", "E4", "--tau", "0,2"]], ids=["check", "transform"])
    def test_tolerance_must_be_finite_and_positive(self, capsys, argv, tol):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--tol", tol])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:") and "tolerance must be finite and > 0" in err

    @pytest.mark.parametrize("weight", ["1e400", "-1e400", str(10 ** 400)],
                             ids=["1e400", "-1e400", "10**400"])
    def test_a_weight_beyond_the_float_range_is_a_usage_error(self, capsys, monkeypatch,
                                                              weight):
        # refused while parsing, before either series is built
        monkeypatch.setattr(cli, "build_series", None)
        with pytest.raises(SystemExit) as exc:
            cli.main(["transform", "--gamma", "0,-1,1,0", "--weight", weight,
                      "--lhs", "eta", "--rhs", "eta", "--tau", "0,1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:") and (
            f"argument --weight: weight must be within the float range, got {weight!r}" in err)

    @pytest.mark.parametrize("argv", [
        ["expand", "--series", "eta"], ["char", "--pair", "0,1"], ["check", "--suite", "qk"],
        ["transform", "--gamma", "1,1,0,1", "--lhs", "eta", "--rhs", "eta", "--tau", "0,2"]],
        ids=["expand", "char", "check", "transform"])
    @pytest.mark.parametrize("order", ["10001", "1e308", "20001/2"])
    def test_order_above_the_cap_is_a_usage_error(self, capsys, argv, order):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--order", order])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:") and f"order must be at most {cli.MAX_ORDER}" in err

    def test_ignored_flag_note_on_stderr(self, capsys):
        assert cli.main(["check", "--suite", "eisenstein"]) == 0
        plain = capsys.readouterr().out
        assert cli.main(["check", "--suite", "eisenstein", "--tau", "1e308,1"]) == 0
        out, err = capsys.readouterr()
        assert out == plain
        assert before_summary(err) == "note: --tau is ignored by suite eisenstein\n"
        assert cli.main(["check", "--suite", "identities", "--tol", "1e-8"]) == 0
        assert before_summary(capsys.readouterr().err) == (
            "note: --tol is ignored by suite identities\n")

    @pytest.mark.parametrize("suite", ["closure", "transforms"])
    def test_tau_reaches_every_numeric_check(self, capsys, suite):
        assert cli.main(["check", "--suite", suite, "--tau", "0,5", "--format", "json"]) == 0
        reports = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert len(reports) == {"closure": 7, "transforms": 3}[suite]
        for r in reports:
            taus = [d["tau"] for d in r["details"] if "tau" in d]
            assert taus == ([[0.0, 5.0]] if r["kind"] == "numeric" else []), r["name"]
        assert [r["kind"] for r in reports].count("numeric") == {"closure": 7,
                                                                 "transforms": 2}[suite]

    @pytest.mark.parametrize("suite, fmt", [("all", "text"), ("all", "json"),
                                            ("identities", "text"), ("transforms", "json")])
    def test_check_ends_with_a_run_summary_on_stderr(self, capsys, suite, fmt):
        reports, status = run_suite(suite)
        assert cli.main(["check", "--suite", suite, "--format", fmt]) == status
        out, err = capsys.readouterr()
        # stdout is the reports alone, as before
        assert out == "".join((json.dumps(r.to_json_dict()) if fmt == "json"
                               else r.summary_line()) + "\n" for r in reports)
        assert before_summary(err) == ""
        counts = _SUMMARY.fullmatch(err.splitlines()[-1]).groups()
        verdicts = [r.verdict() for r in reports]
        assert [int(n) for n in counts] == [verdicts.count(v)
                                            for v in ("pass", "xfail", "fail", "abort")]

    def test_the_summary_counts_aborts_and_failures(self, capsys):
        assert cli.main(["check", "--suite", "all", "--order", "0"]) == 3
        out, err = capsys.readouterr()
        lines = out.splitlines()
        n = {v: sum(line.startswith(v.upper()) for line in lines)
             for v in ("pass", "xfail", "fail", "abort")}
        assert n["abort"] == 2 and n["fail"] > 0
        assert err.splitlines()[-1].startswith(
            f"{n['pass']} pass, {n['xfail']} xfail, {n['fail']} fail, {n['abort']} abort in ")

    def test_read_flags_give_no_note(self, capsys):
        assert cli.main(["check", "--suite", "transforms", "--tol", "1e-8",
                         "--tau", "0,2"]) == 0
        assert before_summary(capsys.readouterr().err) == ""


def _half_argument_row(order, sample_points=None):
    return next(r for r in transforms_suite(order, sample_points=sample_points)
                if r.name == "eta-half-argument-law")


@pytest.mark.parametrize("order", [F(30), F(60), F(301, 3)], ids=str)
def test_eta_half_argument_law_is_an_exact_row(order):
    rep = _half_argument_row(order)
    assert rep.passed and rep.kind == "exact-series" and rep.order_used == order
    assert rep.details == []


@pytest.mark.parametrize("order", [F(0), F(1, 48)], ids=str)
def test_eta_half_argument_law_needs_an_order_above_its_first_term(order):
    rep = _half_argument_row(order, sample_points=(1j,))
    assert not rep.passed and rep.order_used == order
    assert rep.details == [{"error": "insufficient order", "have": str(order),
                            "need": "above 1/48"}]


@pytest.mark.parametrize("mutation", ["shift_tau-identity", "eta(tau/2)-left-side"])
def test_eta_half_argument_law_catches_a_wrong_left_side(monkeypatch, mutation):
    # either mutation leaves eta(tau/2) as the left side, whose q^{25/48}
    # coefficient is -1 where tau -> tau + 1 makes it +1
    if mutation == "shift_tau-identity":
        monkeypatch.setattr(PuiseuxSeries, "shift_tau", lambda self, s: self)
    else:
        monkeypatch.setattr(specfun, "eta_half_period_series",
                            lambda order: specfun.dedekind_eta(2 * F(order)).rescale(F(1, 2)))
    rep = _half_argument_row(F(60))
    assert not rep.passed
    assert rep.details == [{"first_mismatch_exponent": "25/48", "lhs": "-1", "rhs": "1"}]


def test_eisenstein_constant_terms_are_compared_with_literal_values(monkeypatch):
    # a wrong B_4 moves the constant eisenstein builds, but not the one it is checked against
    table = {k: specfun.bernoulli_number(k) for k in range(7)}
    table[4] = F(7)
    monkeypatch.setattr(specfun, "bernoulli_number", table.__getitem__)
    reports, _ = run_suite("eisenstein")
    assert {r.name: r.passed for r in reports if r.name.endswith("-constant-term")} == {
        "E2-constant-term": True, "E4-constant-term": False, "E6-constant-term": True}


def test_eisenstein_suite_builds_every_e_k_through_q_twisted(monkeypatch):
    # E_k is Q_k at the trivial twist: each of the suite's six E_k builds
    # reaches q_twisted at (mu, lambda) = (1, 1), and nothing else does
    e_builds, trivial_q_builds = [], []
    eisenstein, q_twisted = specfun.eisenstein, specfun.q_twisted

    def counted_eisenstein(k, order):
        e_builds.append((k, order))
        return eisenstein(k, order)

    def counted_q_twisted(k, tw, order):
        if tw.trivial:
            trivial_q_builds.append((k, order))
        return q_twisted(k, tw, order)

    monkeypatch.setattr(specfun, "eisenstein", counted_eisenstein)
    monkeypatch.setattr(specfun, "q_twisted", counted_q_twisted)
    reports, status = run_suite("eisenstein")
    assert status == 0 and len(reports) == 6
    assert [k for k, _ in trivial_q_builds] == [2, 4, 6, 4, 6, 2]
    assert trivial_q_builds == e_builds


def test_e2_defect_compared_with_predicted_value():
    reports, _ = run_suite("eisenstein")
    rep = next(r for r in reports if r.name == "E2-S-defect-constancy")
    assert rep.passed and rep.max_residual < 1e-12
    # one detail per sample point, each with a reliable tail
    assert [d["tau"] for d in rep.details] == [[0.0, 2.0], [0.0, 3.0]]
    assert all(d["tail_reliable"] for d in rep.details)
    # the predicted defect is what makes the row pass
    e2 = specfun.eisenstein(2, 60)
    spec = TransformSpec(S, F(2), 1 + 0j, (2j, 3j), 1e-8, 0j)
    assert not check_transform_numeric("E2-S-no-defect", e2, e2, spec).passed


@pytest.mark.parametrize("order", [F(1), F(30), F(301, 3)], ids=str)
def test_qk_t_law_row_fails_against_the_self_target(monkeypatch, order):
    # Q_k(-1, lambda; tau + 1) = Q_k(-1, -lambda; tau) passes; with every
    # lambda read as 1 the row compares Q_k(-1, 1) with its own shift, the
    # target the row had before, which differs at q^{1/2} for every even k
    def row():
        reports, _ = run_suite("qk", exact_order=order, numeric_order=20)
        return next(r for r in reports if r.name == "Qk-tau-periodicity")

    right = row()
    assert right.passed and right.order_used == order
    q_twisted = specfun.q_twisted
    monkeypatch.setattr(specfun, "q_twisted", lambda k, tw, o: q_twisted(
        k, specfun.TwistParams(tw.j, tw.T, 0, tw.T1), o))
    wrong = row()
    assert not wrong.passed
    assert [(d["k"], d["lambda"]) for d in wrong.details] == [
        (k, lam) for k in (2, 4, 6) for lam in (1, -1)]
    assert {d["first_mismatch_exponent"] for d in wrong.details} == {"1/2"}
    assert wrong.details[:2] == [
        {"k": 2, "lambda": lam, "first_mismatch_exponent": "1/2", "lhs": "-1", "rhs": "1"}
        for lam in (1, -1)]
    assert (wrong.details[2]["lhs"], wrong.details[2]["rhs"]) == ("-1/24", "1/24")


def test_qk_t_law_row_needs_an_order_above_half():
    for order in (F(1, 3), F(1, 2)):
        reports, _ = run_suite("qk", exact_order=order, numeric_order=20)
        rep = next(r for r in reports if r.name == "Qk-tau-periodicity")
        assert rep.details == [{"error": "insufficient order", "have": str(order),
                                "need": "above 1/2"}]


class TestCliRobustness:
    @pytest.mark.parametrize("argv", [
        ["check", "--suite", "transforms", "--tau", "nan,1"],
        ["check", "--suite", "closure", "--tau", "0,inf"],
        ["transform", "--gamma", "0,-1,1,0", "--lhs", "eta", "--rhs", "eta",
         "--tau=-inf,2"],
        ["transform", "--gamma", "0,-1,1,0", "--lhs", "eta", "--rhs", "eta",
         "--tau", "0,2", "--multiplier", "1,nan"]])
    def test_non_finite_tau_and_multiplier_are_usage_errors(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "re,im must be finite" in capsys.readouterr().err

    def test_qk_suite_below_half_reports_insufficient_order(self, capsys):
        assert cli.main(["check", "--suite", "qk", "--order", "1/3"]) == 1
        out = capsys.readouterr().out
        assert "FAIL  [exact-series] Q2-(mu=-1,lam=1)-low-coefficients\n" in out
        for order in ("1/3", "1/2"):
            reports, _ = run_suite("qk", exact_order=F(order), numeric_order=400)
            rep = next(r for r in reports if r.name == "Q2-(mu=-1,lam=1)-low-coefficients")
            assert not rep.passed and rep.order_used == F(order)
            assert rep.details == [{"error": "insufficient order", "have": order,
                                    "need": "above 1/2"}]
        reports, _ = run_suite("qk", exact_order=F(3, 4), numeric_order=400)
        assert next(r for r in reports if r.name.startswith("Q2-(mu")).passed

    @pytest.mark.parametrize("argv", [
        # a weight within the float range whose slash factor overflows
        ["transform", "--gamma", "0,-1,1,0", "--weight", "1e308", "--lhs", "E4",
         "--rhs", "E4", "--tau", "0,2"]], ids=["overflow"])
    def test_arithmetic_errors_exit_3(self, capsys, argv):
        assert cli.main(argv) == 3
        assert capsys.readouterr().err.startswith("error: ")

    def test_builders_below_their_first_term_print_the_zero_series(self, capsys):
        assert cli.main(["expand", "--series", "Q0:0,1,1,2", "--order", "0"]) == 0
        assert capsys.readouterr() == ("# O(q^(0))\n", "")
        assert cli.main(["char", "--pair", "1,1", "--order", "-5/2", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["order"] == {"num": -5, "den": 2} and doc["terms"] == []

    @pytest.mark.parametrize("suite, n_fail", [("transforms", 3), ("closure", 7)])
    def test_order_zero_at_a_convergent_point_fails_every_law(self, capsys, suite, n_fail):
        # eta and the untwisted characters are zero at order 0: no law divides by a side,
        # and no target sector counts as identically zero
        argv = ["check", "--suite", suite, "--order", "0", "--tau", "0,1"]
        assert cli.main(argv) == 1
        out, err = capsys.readouterr()
        lines = out.splitlines()
        assert len(lines) == n_fail and all(line.startswith("FAIL ") for line in lines)
        assert before_summary(err) == _ORDER_ZERO_NOTE

    @pytest.mark.parametrize("argv", [
        ["check", "--suite", "eisenstein", "--format", "json"],
        ["expand", "--series", "E4", "--order", "3000"]], ids=["check", "expand"])
    def test_closed_stdout_ends_without_traceback(self, argv):
        proc = subprocess.Popen([sys.executable, "-m", "qmodver.cli", *argv],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                env=_child_env())
        proc.stdout.close()  # the reader is gone before the first write
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) in (0, 1)
        assert err == ""


def _child_env():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}


# -- the command grammar, fuzzed ----------------------------------------------

# values any flag may get, now and then: negative, zero, nan, inf, 1/0, huge,
# off-grid fractions, malformed lists and junk
_NUMBERS = ["nan", "inf", "-inf", "-nan", "-1", "0", "1", "2", "1/2", "7/3", "-5/6", "1/7",
            "1e308", "-1e308", "1e-300", "10000000000000000000000", "x", "", "1/0", "-.5",
            ",", "1,", "1,2,3", "-1,0", "-0.5,1", "-1,0,0,-1", "-.25,-1e-300", "0,1,1"]
# mostly well-formed values of each kind, negative ones among them
_PAIRS = ["0,1", "0,2", "1,2", "0.5,1.5", "-1,0", "-0.5,1", "-.25,1.5", "1,0", "0,-1",
          "1e308,1", "0,1e-300", "0,1e300"]
_SECTORS = ["0,1", "1,1", "1,0", "0,0", "-1,0", "2,0", "0,-1"]
_MATRICES = ["1,0,0,1", "0,-1,1,0", "1,1,0,1", "1,0,2,1", "2,1,1,1", "-1,1,0,-1",
             "-1,0,0,-1", "-1,-1,0,-1", "0,1,-1,0", "1,100000000000000000000,0,1"]
_TWISTS = ["1,2,0,1", "0,1,1,3", "0,1,0,1", "-1,2,0,1", "1,-2,0,1", "1,2,0,-1", "0,0,0,1",
           "1,1000000000,0,1"]
_SERIES = ["eta", "theta1", "theta3", "theta5", "E2", "E4", "E3", "E0", "E-4", "Q1",
           "Q0:0,1,0,1", "Q2:1,2,0,1", "Q2:0,1,1,3", "Q2:0,1,0,1", "Q2:-1,2,0,1", "Q2:x",
           "char:0,1", "char:1,1", "char:-1,0", "char:2,0", "char", "bogus", "E100000",
           "Q401:1,2,0,1", "Q1:1,1000000000,0,1", "eta:junk", "eta:", "theta3:x", "E4:1,2",
           "E2:", "Q2:", "char:"]
# orders stay at or below about 60, so that a run is cheap; above cli.MAX_ORDER
# only "10001" and "1e308", which must be rejected unbuilt
_ORDERS = ["-1", "-5/6", "0", "1/7", "1/3", "1/2", "1", "5/2", "8", "301/5", "60"]
_BAD_ORDERS = ["nan", "inf", "-inf", "x", "", "1/0", "1e-300", "10001", "1e308"]
# well-formed values per parser type and per destination of a str flag;
# any other flag draws from _NUMBERS alone
_BY_TYPE = {cli.parse_order: (_ORDERS, _BAD_ORDERS), cli.parse_complex_pair: (_PAIRS,),
            cli.parse_tolerance: (["1e-8", "1e-3", "1e-12"],),
            cli.parse_fraction: (["0", "1/2", "4", "-1/2", "-4", "2"],)}
_BY_DEST = {"series": _SERIES, "lhs": _SERIES, "rhs": _SERIES, "gamma": _MATRICES,
            "pair": _SECTORS, "twist": _TWISTS}


def _value(options, junk=_NUMBERS):
    """Mostly well-formed values, a sixth of the time any number or junk."""
    if not options:
        return st.sampled_from(junk)
    return st.one_of(*[st.sampled_from(options)] * 5, st.sampled_from(junk))


def _grammar() -> dict:
    """command -> its flags as (flag, takes a value, required, repeatable,
    values), read from make_parser()."""
    parser = cli.make_parser()
    commands = next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    grammar = {}
    for name, sub in commands.items():
        flags = []
        for act in sub._actions:
            if act.choices is not None:
                values = _value([str(c) for c in act.choices])
            elif act.type in _BY_TYPE:
                values = _value(*_BY_TYPE[act.type])
            else:
                values = _value(_BY_DEST.get(act.dest, []))
            flags.append((act.option_strings[-1], act.nargs != 0, act.required,
                          isinstance(act, argparse._AppendAction), values))
        grammar[name] = flags
    return grammar


_GRAMMAR = _grammar()


@st.composite
def cli_argv(draw):
    command = draw(st.sampled_from(sorted(_GRAMMAR)))
    argv = [command]
    for flag, takes_value, required, repeatable, values in _GRAMMAR[command]:
        if not takes_value:  # --help, which ends the run, now and then
            argv += [flag] if draw(st.integers(0, 15)) == 0 else []
            continue
        for _ in range(draw(st.integers(1 if required else 0, 2 if repeatable else 1))):
            if draw(st.integers(0, 3)):
                argv += [flag, draw(values)]
            else:  # the joined form
                argv.append(f"{flag}={draw(values)}")
    return argv


@pytest.mark.parametrize("spec, message", [
    ("E100000", "weight must be at most 400"),
    ("Q401:1,2,0,1", "weight must be at most 400"),
    ("Q1:1,1000000000,0,1", "needs order * T <= 240000"),
])
def test_weight_and_twist_order_caps_reject_before_building(spec, message, monkeypatch,
                                                            capsys):
    def unbuilt(*args):
        raise AssertionError(f"{spec} was built")

    monkeypatch.setattr(specfun, "eisenstein", unbuilt)
    monkeypatch.setattr(specfun, "q_twisted", unbuilt)
    assert cli.main(["expand", "--series", spec, "--order", "1"]) == cli.EXIT_USAGE
    assert cli.main(["transform", "--gamma", "1,1,0,1", "--lhs", "eta", "--rhs", spec,
                     "--tau", "0,2"]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.count(message) == 2, err


def test_caps_admit_their_bounds(monkeypatch):
    built = []
    monkeypatch.setattr(specfun, "eisenstein", lambda *args: built.append(args))
    monkeypatch.setattr(specfun, "q_twisted", lambda *args: built.append(args))
    cli.build_series(f"E{cli.MAX_WEIGHT}", F(20))
    cli.build_series(f"Q{cli.MAX_WEIGHT}:1,2,0,1", F(20))
    cli.build_series("Q2:1,24,0,1", F(cli.MAX_ORDER))  # order * T at its cap
    cli.build_series("Q1:1,2,0,1000000000", F(1))  # T1 sets only lambda: uncapped
    assert [a[0] for a in built] == [cli.MAX_WEIGHT, cli.MAX_WEIGHT, 2, 1]


def test_the_grammar_reaches_every_command_and_flag():
    assert sorted(_GRAMMAR) == ["char", "check", "expand", "transform"]
    flags = {flag for spec in _GRAMMAR.values() for flag, *_ in spec}
    assert {"--order", "--tau", "--gamma", "--multiplier", "--pair", "--twist",
            "--weight", "--tol", "--series", "--suite", "--format", "--help"} <= flags


@settings(max_examples=150, deadline=None)
@given(cli_argv())
def test_every_cli_run_ends_with_a_documented_exit_code(argv):
    # any other exception escapes and fails the test
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's usage errors, and --help
            code = exc.code
    assert code in (0, 1, 2, 3), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue(), (argv, err.getvalue())


def test_closure_suite_builds_each_character_once():
    # cache misses are the calls that reach the unmemoized builder
    # (lattice.character.__wrapped__): 3 distinct characters, not 13 builds;
    # the cache starts empty (tests/conftest.py)
    run_suite("closure")
    info = lattice.character.cache_info()
    assert (info.misses, info.hits) == (3, 10)


def test_identities_suite_builds_each_eta_theta_form_once():
    # the (1,1) form builds the (1,0) one it is the T-image of, and the
    # character-(1,0)-eta-theta and distinct-parts variant rows read that
    # build; the cache starts empty (tests/conftest.py)
    run_suite("identities", exact_order=120)
    info = lattice.eta_theta_form.cache_info()
    assert (info.misses, info.hits) == (3, 2)
