import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmodver.modgroup import (IDENTITY, S, T, ModularMatrix, SectorPair,
                              act_on_pair, is_in_gamma, mobius, require_upper_half,
                              slash_factor)


def random_matrix(rng, size=6):
    # random word in S, T^{+-1}
    m = IDENTITY
    Tinv = T.inverse()
    for _ in range(rng.randrange(1, size)):
        m = m @ rng.choice([S, T, Tinv])
    return m


class TestModularMatrix:
    def test_determinant_enforced(self):
        with pytest.raises(ValueError):
            ModularMatrix(1, 0, 0, 2)

    def test_s_squared(self):
        assert (S @ S).entries() == (-1, 0, 0, -1)

    def test_t_inverse(self):
        assert (T @ T.inverse()) == IDENTITY

    def test_st_cubed(self):
        st = S @ T
        assert (st @ st @ st).entries() == (-1, 0, 0, -1)


class TestGammaMembership:
    def test_examples(self):
        assert is_in_gamma(T, 1, 2)
        assert not is_in_gamma(S, 1, 2)
        assert is_in_gamma(IDENTITY, 2, 2)
        assert is_in_gamma(ModularMatrix(1, 0, 2, 1), 2, 1)

    def test_closure_under_composition_and_inverse(self):
        rng = random.Random(7)
        for T_ord, T1_ord in ((1, 1), (1, 2), (2, 1), (2, 2)):
            members = []
            while len(members) < 20:
                m = random_matrix(rng, 8)
                if is_in_gamma(m, T_ord, T1_ord):
                    members.append(m)
            for _ in range(100):
                x, y = rng.choice(members), rng.choice(members)
                assert is_in_gamma(x @ y, T_ord, T1_ord)
                assert is_in_gamma(x.inverse(), T_ord, T1_ord)


class TestMobius:
    def test_s_at_2i(self):
        assert abs(mobius(S, 2j) - 0.5j) < 1e-15

    def test_t_at_i(self):
        assert abs(mobius(T, 1j) - (1 + 1j)) < 1e-15

    def test_identity(self):
        assert mobius(IDENTITY, 0.3 + 1.7j) == 0.3 + 1.7j

    def test_preserves_upper_half(self):
        rng = random.Random(3)
        for _ in range(100):
            m = random_matrix(rng)
            tau = complex(rng.uniform(-2, 2), rng.uniform(0.1, 3))
            assert mobius(m, tau).imag > 0

    def test_left_action(self):
        rng = random.Random(5)
        for _ in range(100):
            x, y = random_matrix(rng), random_matrix(rng)
            tau = complex(rng.uniform(-1, 1), rng.uniform(0.2, 2))
            assert abs(mobius(x, mobius(y, tau)) - mobius(x @ y, tau)) < 1e-12

    def test_rejects_lower_half(self):
        with pytest.raises(ValueError):
            require_upper_half(1 - 1j)


class TestSectorAction:
    def test_spec_cases(self):
        assert act_on_pair(SectorPair(2, 0, 1), S) == SectorPair(2, 1, 0)
        assert act_on_pair(SectorPair(2, 1, 1), T) == SectorPair(2, 1, 0)
        p = SectorPair(3, 2, 1)
        assert act_on_pair(p, IDENTITY) == p

    def test_right_action_law(self):
        rng = random.Random(11)
        for _ in range(100):
            n = rng.choice([2, 3, 4, 6])
            p = SectorPair(n, rng.randrange(n), rng.randrange(n))
            x, y = random_matrix(rng), random_matrix(rng)
            assert act_on_pair(act_on_pair(p, x), y) == act_on_pair(p, x @ y)


class TestSlashFactor:
    def test_weight_zero(self):
        assert slash_factor(F(0), S, 2j) == 1

    def test_t_any_weight(self):
        for k in (F(1), F(1, 2), F(4)):
            assert abs(slash_factor(k, T, 1 + 2j) - 1) < 1e-15

    def test_s_half_weight_principal_branch(self):
        import cmath
        got = slash_factor(F(1, 2), S, 2j)
        want = cmath.exp(-0.5 * cmath.log(2j))
        assert abs(got - want) < 1e-15


words = st.lists(st.sampled_from([S, T, T.inverse()]), min_size=1, max_size=20)
# Im tau log-uniform over [1e-300, 1e3]
taus = st.builds(lambda x, e: complex(x, 10.0 ** e), st.floats(min_value=-1e3, max_value=1e3),
                 st.floats(min_value=-300, max_value=3))


@settings(max_examples=300, deadline=None)
@given(words, taus, st.sampled_from([F(-1), F(-1, 2), F(0), F(1, 2), F(1)]))
def test_no_pole_inside_the_upper_half_plane(word, tau, k):
    # det = 1 and Im tau > 0: c != 0 gives Im(c tau + d) = c Im tau != 0, and
    # c = 0 forces d = +-1.  Weights |k| <= 1 keep |c tau + d|^-k in float range.
    m = IDENTITY
    for w in word:
        m = m @ w
    assert m.c * tau + m.d != 0
    mobius(m, tau)
    slash_factor(k, m, tau)
