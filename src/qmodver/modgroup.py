"""Integer SL(2,Z) matrices, the congruence subgroup Gamma(T,T1), Moebius and
slash actions on the upper half plane, and the right action on sector pairs."""

from __future__ import annotations

import cmath
from fractions import Fraction
from math import lcm

from ._record import FrozenRecord


class ModularMatrix(FrozenRecord):
    __slots__ = _fields = ("a", "b", "c", "d")

    def __init__(self, a: int, b: int, c: int, d: int):
        if a * d - b * c != 1:
            raise ValueError(f"determinant of {(a, b, c, d)} is not 1")
        super().__init__(a, b, c, d)

    def entries(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)

    def compose(self, other: "ModularMatrix") -> "ModularMatrix":
        return ModularMatrix(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def __matmul__(self, other: "ModularMatrix") -> "ModularMatrix":
        return self.compose(other)

    def inverse(self) -> "ModularMatrix":
        return ModularMatrix(self.d, -self.b, -self.c, self.a)


IDENTITY = ModularMatrix(1, 0, 0, 1)
S = ModularMatrix(0, -1, 1, 0)
T = ModularMatrix(1, 1, 0, 1)


def is_in_gamma(m: ModularMatrix, T_ord: int, T1_ord: int) -> bool:
    """Membership in Gamma(T, T1): a = d = 1 mod lcm(T, T1), b = 0 mod T, c = 0 mod T1."""
    N = lcm(T_ord, T1_ord)
    return (m.a % N == 1 % N and m.d % N == 1 % N
            and m.b % T_ord == 0 and m.c % T1_ord == 0)


def require_upper_half(tau: complex) -> complex:
    tau = complex(tau)
    if tau.imag <= 0:
        raise ValueError(f"tau = {tau} is not in the upper half plane")
    return tau


def mobius(m: ModularMatrix, tau: complex) -> complex:
    """(a tau + b)/(c tau + d); preserves the upper half plane."""
    tau = require_upper_half(tau)
    return (m.a * tau + m.b) / (m.c * tau + m.d)


class SectorPair(FrozenRecord):
    """(g, h) = (g0^i, g0^j) for commuting automorphisms in the cyclic group Z_n."""
    __slots__ = _fields = ("n", "i", "j")

    def __init__(self, n: int, i: int, j: int):
        if n < 1:
            raise ValueError("group order must be positive")
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError("sector exponents must be reduced mod n")
        super().__init__(n, i, j)

    @staticmethod
    def make(n: int, i: int, j: int) -> "SectorPair":
        return SectorPair(n, i % n, j % n)


def act_on_pair(p: SectorPair, m: ModularMatrix) -> SectorPair:
    """The right SL(2,Z) action (g, h) -> (g^a h^c, g^b h^d)."""
    return SectorPair.make(p.n, m.a * p.i + m.c * p.j, m.b * p.i + m.d * p.j)


def _cz_power(w: float, m: ModularMatrix, tau: complex) -> complex:
    """(c tau + d)^w = exp(w log(c tau + d)), principal branch, for a float w
    and a tau already checked; slash_factor and the numeric law share it."""
    return cmath.exp(w * cmath.log(m.c * tau + m.d))


def slash_factor(k, m: ModularMatrix, tau: complex) -> complex:
    """(c tau + d)^{-k}, principal branch for non-integer weight k; k is read
    as a Fraction unless it is an int or a Fraction already."""
    tau = require_upper_half(tau)
    if not isinstance(k, (int, Fraction)):
        k = Fraction(k)
    if not k:
        return 1.0 + 0j
    return _cz_power(-float(k), m, tau)
