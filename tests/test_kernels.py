"""The two multiply kernels of `series` agree, and the kernel chooser sends
the suites' shapes where they run fastest.

Each property forces one kernel and then the other through the chooser
(`_kronecker_pays`) and compares the stored forms, which pins every
coefficient, the grid, the offset, the den and the order.  The shape tests
pin the chooser's rule: operands with many nonzero pairs per packed byte
take Kronecker, sparse ones schoolbook.  The block inversion, the power by
squaring and the lattice comparison are checked against test-local copies
of the loops they replaced, and division against the product with the
inverse.
"""

import math
from contextlib import contextmanager, nullcontext
from fractions import Fraction as F
from unittest.mock import patch

import pytest
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


def choosers(pays):
    """The chooser left to its rule (None), forced either way, or answering
    at random."""
    if pays is None:
        return nullcontext()
    if isinstance(pays, bool):
        return forced("_kronecker_pays", pays)
    return patch.object(series, "_kronecker_pays", lambda a, b: pays.random() < 0.5)


@st.composite
def lattice_series(draw, max_terms=40, zero=False):
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
    if zero and draw(st.integers(min_value=0, max_value=5)) == 0:
        return PuiseuxSeries.zero(order)
    return PuiseuxSeries.from_slots([(off + g * j, v) for j, v in enumerate(vals)],
                                    D, max(order, F(off + 1, D)), den=den)


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


# -- lattice counts -------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(st.fractions(min_value=-60, max_value=60, max_denominator=13),
       st.integers(min_value=1, max_value=48), st.integers(min_value=-200, max_value=200),
       st.integers(min_value=1, max_value=50))
def test_slot_count_is_the_number_of_lattice_points_below_the_order(order, D, off, step):
    # orders on and off the grid 1/D, offsets either side of 0, steps 1 to 50,
    # against a walk up the lattice off + i*step
    n = 0
    while F(off + n * step, D) < order:
        n += 1
    assert series._slot_count(order, D, off, step) == n


# -- block inversion -----------------------------------------------------------

def recurrence_inverse(s):
    """The inverse by the triangular recurrence walked term by term on the
    support lattice, as `invert` computed it before the block scheme."""
    D, g = s.ramification, s.g
    order = s.order - 2 * F(s.offset, D)
    off = -s.offset
    n = series._slot_count(order, D, off)
    n0 = s.vals[0]
    tail = [(k, x) for k, x in enumerate(s.vals) if k and x]
    b = [0] * (-(-n // g) if tail else 1)
    den = abs(n0) ** len(b)
    b[0] = s.den * den // n0
    for m in range(1, len(b)):
        acc = 0
        for k, w in tail:
            if k > m:
                break
            acc += w * b[m - k]
        b[m] = -acc // n0
    return PuiseuxSeries._from_lattice(D, off, g, b, order, series.EXACT, den)


@settings(max_examples=250, deadline=None)
@given(lattice_series(max_terms=90), st.sampled_from([1, 2, 3, 7, 64]),
       st.one_of(st.none(), st.booleans(), st.randoms(use_true_random=False)))
def test_block_inversion_equals_the_recurrence(s, block, pays):
    # small blocks split even short series; the chooser left to its rule,
    # forced either way (every block product through Kronecker, or only the
    # sparse blocks' through schoolbook), or answering at random, which mixes
    # split ranges with ranges that finish by the recurrence inside a split one
    with patch.object(series, "_BLOCK", block), choosers(pays):
        assert s.invert() == recurrence_inverse(s)


@pytest.mark.parametrize("order", [120, 1500])
@pytest.mark.parametrize("build", [specfun.euler_product, specfun.dedekind_eta],
                         ids=lambda f: f.__name__)
def test_sparse_series_are_inverted_without_a_split(build, order):
    s = build(F(order))
    assert kernels_run(s.invert) == []
    assert s.invert() == recurrence_inverse(s)


def test_the_theta3_row_inverse_is_split_through_kronecker():
    n = F(120)
    eta2 = specfun.dedekind_eta(2 * n)
    quotient = eta2.rescale(2).truncate(2 * n) ** 2 * eta2.rescale(F(1, 2)) ** 2
    ran = kernels_run(quotient.invert)
    assert ran and set(ran) == {"kronecker"}
    assert quotient.invert() == recurrence_inverse(quotient)


# -- division ---------------------------------------------------------------------

@st.composite
def division_pairs(draw):
    """(a, b): any dividend, or b times another series, so that a sparse
    factor makes a sparse quotient whose declined block products take
    schoolbook."""
    b = draw(lattice_series(max_terms=90))
    if draw(st.booleans()):
        return draw(lattice_series(max_terms=90, zero=True)), b
    return b * draw(lattice_series(max_terms=90, zero=True)), b


@settings(max_examples=250, deadline=None)
@given(division_pairs(), st.sampled_from([1, 2, 3, 7, 64]),
       st.one_of(st.none(), st.booleans(), st.randoms(use_true_random=False)))
def test_division_stores_the_product_with_the_inverse(pair, block, pays):
    # dens > 1, g > 1, |n_0| > 1, orders off the grid and zero dividends
    a, b = pair
    with patch.object(series, "_BLOCK", block), choosers(pays):
        got = a / b
    ref = a * b.invert()
    assert (got.order, got.ramification) == (ref.order, ref.ramification)
    assert got == ref


def test_division_by_zero_raises():
    with pytest.raises(series.NonInvertibleError):
        specfun.dedekind_eta(10) / PuiseuxSeries.zero(10)
    with pytest.raises(series.NonInvertibleError):
        PuiseuxSeries.zero(10) / PuiseuxSeries.zero(10)


def test_division_of_complex_series_raises():
    eta = specfun.dedekind_eta(10)
    for a, b in ((eta, eta.to_complex()), (eta.to_complex(), eta)):
        with pytest.raises(series.WrongDomainError):
            a / b


def theta3_row(n):
    """The theta3-eta row at order n: eta(2 tau)^5 and the divisor
    eta(2 tau)^2 eta(tau/2)^2."""
    eta2 = specfun.dedekind_eta(2 * n)
    return eta2 ** 5, eta2.rescale(2).truncate(2 * n) ** 2 * eta2.rescale(F(1, 2)) ** 2


def test_the_theta3_row_division_takes_schoolbook_for_its_sparse_blocks():
    # at N = 120 the quotient (theta3, 240 half-integer slots, 16 nonzero)
    # reaches its right halves through two Kronecker block products; the
    # third block, 3 nonzero values in 60, is turned down and is sparse, so
    # it takes schoolbook where the recurrence ran before
    power, divisor = theta3_row(F(120))
    assert kernels_run(lambda: power / divisor) == ["kronecker", "kronecker", "schoolbook"]
    assert power / divisor == power * divisor.invert()


def test_the_deep_theta3_row_division_takes_both_block_kernels():
    power, divisor = theta3_row(F(600))
    ran = kernels_run(lambda: power / divisor)
    assert set(ran) == {"kronecker", "schoolbook"}
    assert power / divisor == power * divisor.invert()


def test_the_theta3_row_division_runs_58_schoolbook_block_products():
    # at N = 1500 the quotient's sparse blocks reach their right halves
    # through 58 schoolbook block products
    power, divisor = theta3_row(F(1500))
    assert kernels_run(lambda: power / divisor).count("schoolbook") == 58
    assert power / divisor == power * divisor.invert()


@settings(max_examples=150, deadline=None)
@given(st.lists(numerators, max_size=40), st.integers(min_value=1, max_value=8))
def test_pack_is_the_sum_of_its_digits(vals, extra):
    nb = -(-(series._bits(vals) + extra) // 8)
    assert series._pack(vals, nb) == sum(v << (8 * nb * i) for i, v in enumerate(vals))


# -- powers ---------------------------------------------------------------------

def linear_power(s, n):
    """one(order) * s * ... * s, the n factors multiplied in turn."""
    out = PuiseuxSeries.one(s.order)
    for _ in range(n):
        out = out * s
    return out


@settings(max_examples=200, deadline=None)
@given(lattice_series(max_terms=12, zero=True), st.integers(min_value=0, max_value=9))
def test_power_by_squaring_stores_the_linear_product(s, n):
    # negative leads, den > 1, g > 1 and orders off the grid: the stored form,
    # order and ramification included, is the linear loop's, at orders <= 0 too
    assert s ** n == linear_power(s, n)


def test_the_empty_product_at_an_order_at_most_zero_is_the_zero_series():
    eta = specfun.dedekind_eta(F(-1, 3))
    for s, order in ((PuiseuxSeries.zero(0) ** 2, 0), (PuiseuxSeries.one(0), 0),
                     (PuiseuxSeries.one(F(-1, 2)), F(-1, 2)), (eta ** 0, F(-1, 3))):
        assert s == PuiseuxSeries.zero(order)


# -- comparison -------------------------------------------------------------------

def dict_first_mismatch(a, b):
    """The first mismatch through two slot dicts and their sorted keys, as
    `first_mismatch` found it before the lattice lists.  The dicts are read
    from `terms()`, numerator on the common grid to numerator over the
    common den, so this reference does not place a series on a lattice."""
    D, d = math.lcm(a.ramification, b.ramification), math.lcm(a.den, b.den)
    top = math.ceil(min(a.order, b.order) * D)
    x, y = ({int(e * D): int(c * d) for e, c in s.terms()} for s in (a, b))
    for k in sorted(x.keys() | y.keys()):
        if k >= top:
            break
        if x.get(k, 0) != y.get(k, 0):
            return F(k, D), series._ratio(x.get(k, 0), d), series._ratio(y.get(k, 0), d)
    return None


@st.composite
def compared_pairs(draw):
    """A series and a second one on another grid, over another den, at
    another order: equal to it, zero, or off by one coefficient at its first,
    its last or any slot, or by one more term, one slot of the finer grid
    before its first term, after any term or after its last, so that a value
    lost at the tail of the coarser side is reached."""
    a = draw(lattice_series(zero=True))
    terms = list(a.terms())
    D = a.ramification * draw(st.sampled_from([1, 2, 3]))
    order = a.order + draw(st.sampled_from([F(0), F(0), F(-1, 5), F(1, 3), F(-2)]))
    how = draw(st.sampled_from(["equal", "zero", "first", "last", "any", "extra"]))
    if how == "zero":
        terms = []
    elif how == "extra":
        # one slot of the finer grid before the first term, after any term
        # (between two, or on the next one), or after the last
        exps = [e for e, _ in terms] or [a.exponent(0)]
        e = draw(st.sampled_from([exps[0] - F(1, D), exps[-1] + F(1, D)])
                 | st.sampled_from(exps).map(lambda x: x + F(1, D)))
        terms.append((e, draw(numerators.filter(bool))))
    elif how != "equal" and terms:
        i = {"first": 0, "last": len(terms) - 1}.get(
            how, draw(st.integers(min_value=0, max_value=len(terms) - 1)))
        e, c = terms[i]
        terms[i] = (e, c + draw(st.sampled_from([F(1), F(-1, 3), F(1, 40)])))
    b = PuiseuxSeries.from_terms(terms, order, ramification=D)
    return (a, b) if draw(st.booleans()) else (b, a)


@settings(max_examples=300, deadline=None)
@given(compared_pairs())
def test_first_mismatch_equals_the_dict_walk(pair):
    a, b = pair
    got, ref = a.first_mismatch(b), dict_first_mismatch(a, b)
    assert got == ref
    if ref is not None:
        assert [type(v) for v in got] == [type(v) for v in ref]
