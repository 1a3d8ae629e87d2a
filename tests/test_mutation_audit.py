"""An independence audit of the `identities` suite: every row that passes at
the default orders must fail once one builder it depends on is mutated, or a
PASS there would not show that its two sides agree for a reason.

Each mutation patches one table entry, constant or builder that a row's side
reads: a flipped alternation sign of a lattice sector or of a theta function,
a prefactor moved by 1/24, a wrong partition count, a doubled q d/dq.  The
memoized builders are emptied before and after each mutation, so no series
built under one mutation is read under another or by a later test.
"""

from fractions import Fraction

import pytest

from qmodver import lattice, specfun
from qmodver.series import PuiseuxSeries
from qmodver.verify import run_suite

# rows that compare two sides equal by construction, so no mutation fails
# them; l0-insertion-(0,0) is not one, since l0_inserted_trace reads its sign
# from the sector pair and the character from the sector table
SURVIVORS = set()


def _empty_caches():
    for builder in (specfun.dedekind_eta, specfun.partition_gf, lattice.character,
                    lattice.eta_theta_form, lattice._partition_counts):
        builder.cache_clear()


def _flip_sector_sign(key):
    def mutate(m):
        alternating, twisted, theta_index = lattice._SECTORS[key]
        m.setitem(lattice._SECTORS, key, (not alternating, twisted, theta_index))
    return mutate


def _flip_theta_sign(which):
    def mutate(m):
        m.setitem(specfun._THETA_SIGNS, which, not specfun._THETA_SIGNS[which])
    return mutate


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


MUTATIONS = {
    **{f"sector-{i}{j}-sign": _flip_sector_sign((i, j)) for i, j in lattice._SECTORS},
    **{f"theta{k}-sign": _flip_theta_sign(k) for k in specfun._THETA_SIGNS},
    "prefactor+1/24": _move_prefactor,
    "p(3)+1": _bump_p3,
    "q_d_dq*2": _double_q_d_dq,
}


def _failing_rows(monkeypatch, mutate):
    _empty_caches()
    try:
        with monkeypatch.context() as m:
            mutate(m)
            reports, _ = run_suite("identities")
    finally:
        _empty_caches()
    return {r.name for r in reports if not r.passed}


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_each_mutation_fails_some_passing_row(monkeypatch, name):
    passing = {r.name for r in run_suite("identities")[0] if r.passed}
    assert _failing_rows(monkeypatch, MUTATIONS[name]) & passing


def test_every_passing_row_fails_under_some_mutation(monkeypatch):
    reports, status = run_suite("identities")
    assert status == 0
    passing = {r.name for r in reports if r.passed}
    caught = set()
    for mutate in MUTATIONS.values():
        caught |= _failing_rows(monkeypatch, mutate)
    survivors = passing - caught
    assert survivors == SURVIVORS, (
        f"rows that no mutation fails: {sorted(survivors - SURVIVORS)}; "
        f"listed survivors that a mutation now fails: {sorted(SURVIVORS - survivors)}")
