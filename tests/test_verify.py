import cmath
import json
import math
from fractions import Fraction as F

import pytest

from qmodver import cli, lattice, specfun
from qmodver.modgroup import S, T, ModularMatrix, SectorPair
from qmodver.series import PuiseuxSeries
from qmodver.verify import (DegenerateSectorError, TransformSpec,
                            WrongDomainError, check_series_equal,
                            check_transform_numeric, closure_scan, run_suite)


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

    def test_degenerate_target(self):
        # (0,0) is fixed by T and its character vanishes
        with pytest.raises(DegenerateSectorError):
            closure_scan(SectorPair(2, 0, 0), T, (2j,), 1e-8)


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
        # the character builds its oscillator factor one order higher
        assert cli.main(["char", "--pair", "0,1", "--order", "-1"]) == 2
        assert capsys.readouterr().err == "error: partition_gf needs a positive order, got 0\n"

    def test_expand_json_schema(self, capsys):
        assert cli.main(["expand", "--series", "theta3", "--order", "4",
                         "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"ramification", "offset", "order", "domain", "terms"}
        s = PuiseuxSeries.from_json_dict(doc)
        assert s.equals(specfun.jacobi_theta(3, 4))

    def test_expand_q_requires_twist(self, capsys):
        assert cli.main(["expand", "--series", "Q2", "--order", "3"]) == 2

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

    def test_convergence_exit(self, capsys):
        # tau with tiny imaginary part: |q|^step too close to 1
        code = cli.main(["transform", "--gamma", "1,1,0,1", "--weight", "0",
                         "--lhs", "eta", "--rhs", "eta", "--tau", "0,0.001"])
        assert code == 3


class TestCliFlags:
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

    def test_ignored_flag_note_on_stderr(self, capsys):
        assert cli.main(["check", "--suite", "eisenstein"]) == 0
        plain = capsys.readouterr().out
        assert cli.main(["check", "--suite", "eisenstein", "--tau", "1e308,1"]) == 0
        out, err = capsys.readouterr()
        assert out == plain
        assert err == "note: --tau is ignored by suite eisenstein\n"
        assert cli.main(["check", "--suite", "identities", "--tol", "1e-8"]) == 0
        assert capsys.readouterr().err == "note: --tol is ignored by suite identities\n"

    def test_read_flags_give_no_note(self, capsys):
        assert cli.main(["check", "--suite", "transforms", "--tol", "1e-8",
                         "--tau", "0,2"]) == 0
        assert capsys.readouterr().err == ""


def test_e2_defect_compared_with_predicted_value():
    reports, _ = run_suite("eisenstein")
    rep = next(r for r in reports if r.name == "E2-S-defect-constancy")
    assert rep.passed and rep.max_residual < 1e-12
    info = rep.details[-1]
    assert info["predicted_defect_over_tau"] == [0.0, 1 / (2 * math.pi)]
    for re, im in info["measured_defect_over_tau"]:
        assert abs(complex(re, im) - 1j / (2 * math.pi)) == pytest.approx(0, abs=1e-12)
    # one residual per sample point, each against the predicted value
    assert [d["tau"] for d in rep.details[:-1]] == [[0.0, 2.0], [0.0, 3.0]]
