"""Generalized Pauli pair and the complementarity-based phase operators in dimension 3.

The clock matrix Z = diag(w, w^2, 1) and the decorated shift X obey
X^k Z^l = w^{kl} Z^l X^k (Schwinger's unitary operator basis, PNAS 46, 570
(1960)).  X and the complementary phase operators are all decorated cyclic
shifts.  A phase operator complementary to the population difference must
intertwine Z with w^2 Z; for the fundamental irrep this pins the unitary down
to one free angle per operator, and demanding additive phases restricts the
angles to a 2pi/3 lattice.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .generators import Monomial

TWO_THIRDS_PI = 2.0 * math.pi / 3.0


def omega(d: int) -> complex:
    return cmath.exp(2j * math.pi / d)


@dataclass(frozen=True)
class PauliPair:
    d: int
    omega: complex
    x: np.ndarray
    z: np.ndarray


def _decorated_shift(entries: list[complex]) -> np.ndarray:
    """Cyclic shift decorated by entries: entry r sits at row r, column r + 1 mod d."""
    cols = np.arange(len(entries))
    return Monomial((cols - 1) % len(cols), np.roll(entries, 1)).dense()


def pauli_generators(d: int = 3) -> PauliPair:
    """Clock and shift pair in dimension d.

    d = 3 uses the decorated shift with entries {1, w^2, w}; other dimensions
    fall back to the plain cyclic shift (experimental, the clock/shift
    relations still hold).
    """
    if d < 2:
        raise ValueError(f"dimension must be at least 2, got {d}")
    w = omega(d)
    z = np.diag(np.array([w ** (r + 1) for r in range(d)], dtype=complex))
    x = _decorated_shift([1.0, w ** 2, w] if d == 3 else [1.0] * d)
    return PauliPair(d=d, omega=w, x=x, z=z)


def pauli_relation_residual(pair: PauliPair) -> float:
    """Max defect of X^k Z^l = w^{kl} Z^l X^k over all k, l in Z_d."""
    xp = {0: np.eye(pair.d, dtype=complex)}
    zp = {0: np.eye(pair.d, dtype=complex)}
    for k in range(1, pair.d):
        xp[k] = xp[k - 1] @ pair.x
        zp[k] = zp[k - 1] @ pair.z
    defects = [
        np.max(np.abs(xp[k] @ zp[l] - pair.omega ** (k * l) * zp[l] @ xp[k]))
        for k in range(pair.d)
        for l in range(pair.d)
    ]
    return float(np.max(defects))


def complementary_E12(beta: float) -> np.ndarray:
    """One-parameter family of complementary phase unitaries for C_12."""
    return _decorated_shift([1.0, cmath.exp(1j * beta), cmath.exp(-1j * beta)])


def complementary_E23(gamma: float) -> np.ndarray:
    """One-parameter family of complementary phase unitaries for C_23."""
    return _decorated_shift([cmath.exp(1j * gamma), 1.0, cmath.exp(-1j * gamma)])


def complementarity_check(e: np.ndarray) -> float:
    """Residual of the complementarity relation Z E = w^2 E Z.

    Z is the exponentiated population-difference clock diag(w, w^2, 1).
    """
    e = np.asarray(e, dtype=complex)
    z = pauli_generators(3).z
    if e.shape != z.shape:
        raise ValueError(f"dimension mismatch: {e.shape} vs {z.shape}")
    w = omega(e.shape[0])
    return float(np.max(np.abs(z @ e - w ** 2 * e @ z)))


@dataclass(frozen=True)
class AdditivePair:
    """Angles (beta, gamma) making the complementary phases additive."""

    beta: float
    gamma: float
    simplest_nontrivial: bool


def additivity_solve() -> list[AdditivePair]:
    """All (beta, gamma) on the 2pi/3 lattice with additive phase operators.

    Enumerates the nine lattice candidates (multiples of 2pi/3 mod 2pi) and
    keeps those satisfying beta+gamma, 2beta-gamma and -beta+2gamma all
    congruent to 0 mod 2pi.  For each survivor E_13 = E_12 E_23 holds and the
    two phase unitaries commute.
    """
    lattice = [k * TWO_THIRDS_PI for k in range(3)]

    def is_zero_mod_2pi(angle: float) -> bool:
        return abs(math.remainder(angle, 2.0 * math.pi)) < 1e-12

    solutions = []
    for beta in lattice:
        for gamma in lattice:
            if not (
                is_zero_mod_2pi(beta + gamma)
                and is_zero_mod_2pi(2 * beta - gamma)
                and is_zero_mod_2pi(-beta + 2 * gamma)
            ):
                continue
            simplest = is_zero_mod_2pi(beta - TWO_THIRDS_PI) and is_zero_mod_2pi(
                gamma + TWO_THIRDS_PI
            )
            solutions.append(
                AdditivePair(beta=beta, gamma=gamma, simplest_nontrivial=simplest)
            )
    return solutions


def omega_solution_matrices() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The additive complementary solution omega-matrices at (beta, gamma) = (2pi/3, -2pi/3)."""
    w = omega(3)
    e12 = np.array(
        [[0, 1, 0], [0, 0, w], [w ** 2, 0, 0]], dtype=complex
    )
    e23 = np.array(
        [[0, w ** 2, 0], [0, 0, 1], [w, 0, 0]], dtype=complex
    )
    e13 = np.array(
        [[0, 0, 1], [w ** 2, 0, 0], [0, w, 0]], dtype=complex
    )
    return e12, e23, e13
