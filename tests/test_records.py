"""The package's value classes: validation, equality, hashing, repr and
immutability, and an import that stays free of `dataclasses`."""

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction as F

import pytest

from qmodver.lattice import CharacterData
from qmodver.modgroup import ModularMatrix, SectorPair
from qmodver.series import COMPLEX, EXACT, PuiseuxSeries, SeriesError
from qmodver.specfun import TwistParams
from qmodver.verify import CheckReport, TransformSpec


def test_cli_import_leaves_dataclasses_and_inspect_out():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = ("import sys, qmodver.cli; "
            "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True).stdout
    assert out == "[]\n"


@pytest.mark.parametrize("make, exc, message", [
    (lambda: ModularMatrix(1, 1, 1, 1), ValueError, "determinant of (1, 1, 1, 1) is not 1"),
    (lambda: SectorPair(0, 0, 0), ValueError, "group order must be positive"),
    (lambda: SectorPair(2, 2, 0), ValueError, "sector exponents must be reduced mod n"),
    (lambda: TwistParams(0, 0, 0, 1), ValueError, "twist orders T, T1 must be positive"),
    (lambda: TwistParams(2, 2, 0, 1), ValueError,
     "twist exponents must satisfy 0 <= j < T, 0 <= l < T1"),
    (lambda: PuiseuxSeries(0, 0, (), F(0), EXACT), SeriesError,
     "ramification must be a positive integer"),
    (lambda: PuiseuxSeries(1, 0, (), F(0), "real"), SeriesError, "unknown domain 'real'"),
    (lambda: PuiseuxSeries(2, 1, (1,), F(3, 2), EXACT), SeriesError,
     "coefficient list length 1 != 2 slots below order 3/2"),
    (lambda: PuiseuxSeries(1, 0, (complex("nan"),), F(1), COMPLEX), SeriesError,
     "non-finite complex coefficient"),
    (lambda: PuiseuxSeries(1, 0, (0.5,), F(1), EXACT), SeriesError,
     "exact series needs int or Fraction coefficients, got float"),
])
def test_validation_errors(make, exc, message):
    with pytest.raises(exc) as info:
        make()
    assert str(info.value) == message


FROZEN = [
    (lambda: ModularMatrix(0, -1, 1, 0), "ModularMatrix(a=0, b=-1, c=1, d=0)"),
    (lambda: SectorPair(2, 1, 0), "SectorPair(n=2, i=1, j=0)"),
    (lambda: TwistParams(1, 2, 0, 1), "TwistParams(j=1, T=2, l=0, T1=1)"),
    (lambda: PuiseuxSeries(24, 1, (1,), F(1, 12), EXACT),
     "PuiseuxSeries(ramification=24, offset=1, coeffs=(1,), order=Fraction(1, 12), "
     "domain='exact')"),
]


@pytest.mark.parametrize("make, text", FROZEN)
def test_frozen_records_compare_hash_and_print_by_field(make, text):
    a, b = make(), make()
    assert a is not b and a == b and hash(a) == hash(b)
    assert repr(a) == text
    assert len({a, b}) == 1
    assert a != tuple(a._values()) and a != object()
    field = a._fields[0]
    with pytest.raises(AttributeError):
        setattr(a, field, 5)
    with pytest.raises(AttributeError):
        delattr(a, field)
    assert copy.copy(a) == a and pickle.loads(pickle.dumps(a)) == a


def test_records_differ_by_class_and_field():
    assert ModularMatrix(1, 0, 0, 1) != ModularMatrix(1, 1, 0, 1)
    assert SectorPair(2, 0, 1) != SectorPair(2, 1, 0)
    one = PuiseuxSeries.one(3)
    assert one != PuiseuxSeries.one(4) and one != one.to_complex()


def test_check_report_is_mutable_and_unhashable():
    a = CheckReport("x", "numeric", True, F(3))
    b = CheckReport("x", "numeric", True, F(3))
    assert a == b and a.details == [] and a.details is not b.details
    a.details.append({"note": "only a"})
    assert b.details == [] and a != b
    a.passed = False
    assert not a.passed
    with pytest.raises(TypeError):
        hash(a)
    assert repr(b) == ("CheckReport(name='x', kind='numeric', passed=True, "
                       "order_used=Fraction(3, 1), max_residual=None, tail_estimate=None, "
                       "details=[], expected_fail=False, aborted=False)")
    c = CheckReport("y", "exact-series", False, F(1), 0.5, 0.1, [{"k": 1}], True, True)
    assert pickle.loads(pickle.dumps(c)) == c


def test_named_tuple_records():
    spec = TransformSpec(ModularMatrix(1, 1, 0, 1), F(0), 1 + 0j, (2j,), 1e-8)
    assert spec.gamma.b == 1 and spec.sample_points == (2j,)
    assert hash(spec) == hash(TransformSpec(*spec))
    data = CharacterData(SectorPair(2, 0, 1), F(-2), PuiseuxSeries.one(1))
    assert repr(data).startswith("CharacterData(sector=SectorPair(n=2, i=0, j=1), "
                                 "central_charge=Fraction(-2, 1), series=PuiseuxSeries(")
    with pytest.raises(AttributeError):
        data.series = None
