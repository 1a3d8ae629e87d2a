"""An independence audit of the exact rows of the `identities`, `transforms`,
`eisenstein` and `qk` suites: every exact row that passes at the default
orders must fail once one builder it depends on is mutated, or a PASS there
would not show that its two sides agree for a reason.

Each mutation patches one constant or builder that a row's side reads: a
flipped alternation sign of a lattice sector or of a theta function (a
wrapper around the one bilateral sum that flips its sign for that sector or
theta alone), tau -> tau + 1 made a no-op, a prefactor moved by 1/24, a wrong
partition count, a doubled q d/dq, a Bernoulli polynomial off by one.  The
memoized builders are emptied before and after each mutation, so no series
built under one mutation is read under another or by a later test.
"""

from fractions import Fraction

import pytest

from qmodver import lattice, specfun
from qmodver.series import PuiseuxSeries
from qmodver.verify import run_suite

SUITES = ("identities", "transforms", "eisenstein", "qk")

# passing exact rows that no mutation can fail, each with the reason
SURVIVORS = {
    "Q0-is-minus-one": "q_twisted returns the constant -1 for k = 0 before it forms "
                       "any term, so the row compares Q_0's definition with itself",
    "Q2-gamma-in-Gamma(2,1)": "a precondition on a constant matrix, is_in_gamma((1,0,2,1), "
                              "2, 1), reported as a row; it compares no two series",
}


def _empty_caches():
    for builder in (specfun.dedekind_eta, specfun.partition_gf, lattice.character,
                    lattice.eta_theta_form, lattice._partition_counts):
        builder.cache_clear()


def _flip_sign(module, key):
    """Patch module._bilateral_sum so that the sum at (a, c, alternating) == key
    takes the other sign rule."""
    def mutate(m):
        bilateral_sum = module._bilateral_sum

        def flipped(a, c, alternating, order):
            if (a, c, alternating) == key:
                alternating = not alternating
            return bilateral_sum(a, c, alternating, order)

        m.setattr(module, "_bilateral_sum", flipped)
    return mutate


def _flip_sector_sign(i, j):
    # lattice_sum reads sector (i, j) as the sum at a = 1 - i, c = 1, alternating when j = 0
    return _flip_sign(lattice, (1 - i, 1, j == 0))


def _flip_theta_sign(which):
    # jacobi_theta reads theta_k as the sum at a = (k < 3), c = 0, alternating for k = 1, 4
    return _flip_sign(specfun, (which < 3, 0, which in (1, 4)))


def _no_shift_tau(m):
    m.setattr(PuiseuxSeries, "shift_tau", lambda self, s: self)


def _move_prefactor(m):
    m.setattr(lattice, "PREFACTOR_EXP", lattice.PREFACTOR_EXP + Fraction(1, 24))


def _bump_p3(m):
    counts = lattice._partition_counts

    def bumped(n_max):
        p = list(counts(n_max))
        if n_max >= 3:
            p[3] += 1
        return tuple(p)

    m.setattr(lattice, "_partition_counts", bumped)


def _double_q_d_dq(m):
    q_d_dq = PuiseuxSeries.q_d_dq
    m.setattr(PuiseuxSeries, "q_d_dq", lambda self: q_d_dq(self).scale(2))


def _bump_bernoulli(m):
    bernoulli_poly = specfun.bernoulli_poly
    m.setattr(specfun, "bernoulli_poly", lambda k, x: bernoulli_poly(k, x) + 1)


SECTOR_FLIPS = {f"sector-{s.i}{s.j}-sign": _flip_sector_sign(s.i, s.j)
                for s in lattice.all_sectors()}
THETA_FLIPS = {f"theta{k}-sign": _flip_theta_sign(k) for k in (1, 2, 3, 4)}
MUTATIONS = {
    **SECTOR_FLIPS,
    **THETA_FLIPS,
    "shift_tau-no-op": _no_shift_tau,
    "prefactor+1/24": _move_prefactor,
    "p(3)+1": _bump_p3,
    "q_d_dq*2": _double_q_d_dq,
    "B_k(x)+1": _bump_bernoulli,
}


def _reports():
    return [r for suite in SUITES for r in run_suite(suite)[0]]


def _passing_exact_rows():
    return {r.name for r in _reports() if r.kind == "exact-series" and r.passed}


def _failing_rows(monkeypatch, mutate):
    _empty_caches()
    try:
        with monkeypatch.context() as m:
            mutate(m)
            reports = _reports()
    finally:
        _empty_caches()
    return {r.name for r in reports if not r.passed}


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_each_mutation_fails_some_passing_row(monkeypatch, name):
    assert _failing_rows(monkeypatch, MUTATIONS[name]) & _passing_exact_rows()


def test_every_passing_row_fails_under_some_mutation(monkeypatch):
    passing = _passing_exact_rows()
    caught = set()
    for mutate in MUTATIONS.values():
        caught |= _failing_rows(monkeypatch, mutate)
    survivors = passing - caught
    assert survivors == set(SURVIVORS), (
        f"rows that no mutation fails: {sorted(survivors - set(SURVIVORS))}; "
        f"listed survivors that a mutation now fails: {sorted(set(SURVIVORS) - survivors)}")


def test_no_row_reads_a_bilateral_sum_on_both_sides(monkeypatch):
    # the character rows' closed forms are eta quotients, and the theta rows'
    # right sides are too: a theta sign fails no character row, and a sector
    # sign no theta row
    passing = _passing_exact_rows()
    character_rows = {n for n in passing if n.endswith("-eta-theta")}
    theta_rows = {n for n in passing if n.startswith("theta")}
    assert len(character_rows) == 3 and len(theta_rows) == 4
    for mutate in THETA_FLIPS.values():
        assert not _failing_rows(monkeypatch, mutate) & character_rows
    for mutate in SECTOR_FLIPS.values():
        assert not _failing_rows(monkeypatch, mutate) & theta_rows


def test_shift_tau_no_op_fails_the_t_image_row(monkeypatch):
    # the (1,1) closed form is the (1,0) one under tau -> tau + 1
    assert "character-(1,1)-eta-theta" in _failing_rows(monkeypatch, _no_shift_tau)
