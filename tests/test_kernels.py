"""The two multiply kernels of `series` agree, and the kernel chooser sends
the suites' shapes where they run fastest.

Each property forces one kernel and then the other through the chooser
(`_kronecker_pays`) and compares the stored forms, which pins every
coefficient, the grid, the offset, the den and the order.  The shape tests
pin the chooser's rule: operands with many nonzero pairs per packed byte
take Kronecker, sparse ones schoolbook.
"""

from contextlib import contextmanager
from fractions import Fraction as F
from unittest.mock import patch

from hypothesis import given, settings
from hypothesis import strategies as st

from qmodver import series, specfun
from qmodver.series import PuiseuxSeries

BIG = 1 << 320
numerators = st.one_of(st.integers(min_value=-3, max_value=3),
                       st.integers(min_value=-BIG, max_value=BIG))


@contextmanager
def forced(name, value):
    """The chooser `name` answering `value`."""
    with patch.object(series, name, lambda *args: value):
        yield


@st.composite
def lattice_series(draw, max_terms=40):
    """A series on the lattice off + g*Z of the 1/D grid, dense or sparse,
    over a den, with an order that may cut it."""
    D = draw(st.sampled_from([1, 2, 3, 8, 24]))
    g = draw(st.integers(min_value=1, max_value=5))
    off = draw(st.integers(min_value=-2 * D, max_value=2 * D))
    n = draw(st.integers(min_value=1, max_value=max_terms))
    steps = draw(st.sampled_from(["dense", "sparse"]))
    vals = [draw(numerators) if steps == "dense" or j == 0 or draw(st.booleans()) else 0
            for j in range(n)]
    vals[0] = draw(numerators.filter(bool))
    # an order past the last slot, or one that cuts the tail
    top = off + g * draw(st.integers(min_value=1, max_value=n + 3))
    order = F(top, D) - draw(st.sampled_from([F(0), F(1, 7)]))
    den = draw(st.sampled_from([1, 1, 2, 7, 40]))
    return PuiseuxSeries.from_slots([(off + g * j, v) for j, v in enumerate(vals)],
                                    D, max(order, F(off + 1, D)), den=den)


def rebuilt(s):
    """An equal series with an empty inverse slot."""
    return PuiseuxSeries.from_json_dict(s.to_json_dict())


@settings(max_examples=150, deadline=None)
@given(lattice_series(), lattice_series())
def test_kronecker_product_equals_schoolbook(a, b):
    with forced("_kronecker_pays", True):
        kron = a * b
    with forced("_kronecker_pays", False):
        school = a * b
    assert kron == school


@settings(max_examples=150, deadline=None)
@given(st.lists(numerators, min_size=1, max_size=50),
       st.lists(numerators, min_size=1, max_size=50), st.integers(min_value=1, max_value=120))
def test_kronecker_kernel_equals_schoolbook_kernel(a, b, m):
    a, b = a[:m], b[:m]
    assert series._kronecker(a, b, m) == series._schoolbook(a, b, m)
    assert series._kronecker(a, a, m) == series._schoolbook(a, a, m)


def test_kronecker_digits_hold_the_largest_products():
    # with every coefficient 2^k - 1 of one sign, the middle product
    # coefficient nearly reaches the bound the digit width is sized for
    for k in range(1, 20):
        for n in range(1, 40):
            for sa, sb in ((1, 1), (-1, 1), (-1, -1)):
                a, b = [sa * (2 ** k - 1)] * n, [sb * (2 ** k - 1)] * n
                assert series._kronecker(a, b, 2 * n - 1) == series._schoolbook(a, b, 2 * n - 1)


def kernels_run(op):
    """The names of the multiply kernels that op() runs, in call order."""
    ran = []
    kron, school = series._kronecker, series._schoolbook
    with patch.object(series, "_kronecker", lambda *a: ran.append("kronecker") or kron(*a)), \
            patch.object(series, "_schoolbook", lambda *a: ran.append("schoolbook") or school(*a)):
        op()
    return ran


def test_the_dense_theta3_row_product_takes_kronecker():
    # theta3-eta-relation at N = 120: eta(2 tau)^5 times the inverse of
    # eta(2 tau)^2 eta(tau/2)^2, both 240 slots of the half-integer grid
    n = F(120)
    eta2 = specfun.dedekind_eta(2 * n)
    quotient = ((eta2.rescale(2).truncate(2 * n) ** 2 * eta2.rescale(F(1, 2)) ** 2)
                .invert())
    power = eta2 ** 5
    assert (len(power.vals), len(quotient.vals)) == (240, 240)
    assert kernels_run(lambda: power * quotient) == ["kronecker"]


def test_eta_times_eta_takes_schoolbook():
    eta = specfun.dedekind_eta(120)
    assert kernels_run(lambda: eta * eta) == ["schoolbook"]


def test_the_chooser_counts_nonzeros_not_only_lengths():
    # a dense series times an Euler product of the same length: sparse
    euler = specfun.euler_product(1500)
    dense = specfun.partition_gf(1500)
    assert kernels_run(lambda: dense * euler) == ["schoolbook"]
    assert kernels_run(lambda: dense * dense) == ["kronecker"]


def test_invert_is_computed_once_per_series():
    eta = rebuilt(specfun.dedekind_eta(30))
    first = eta.invert()
    assert eta.invert() is first
    assert first == rebuilt(eta).invert()
