"""Coherent-state (non-Hermitian) realization of su(2) and su(3) at matrix level.

In the exponential-function basis the ladder coefficients are integers,
(j -+ m) for su(2) and mode occupations for su(3), instead of the square
roots of the Hermitian realization.  A diagonal binomial-square-root matrix
intertwines the two pictures; the phase part of the polar decomposition is
unchanged by that similarity, which is the point of the whole construction.

Basis ordering matches the rest of the package: m = j, ..., -j for su(2) and
the lexicographically decreasing occupation order for su(3).
"""

from __future__ import annotations

import math

import numpy as np

from .basis import OrderedBasis, enumerate_basis
from .generators import (
    GeneratorSet,
    SU2Matrices,
    _check_spin,
    _generator_set,
    _spin_matrices,
    _weight_shift,
    commutation_residual,
    su2_matrices,
)
from .phases import su2_shift_E


def _coherent_ladder(basis: OrderedBasis, i: int, j: int) -> np.ndarray:
    """C_ij with the bare occupation n_j as coefficient: z_i d/dz_j on monomials."""
    return _weight_shift(basis, i, j, lambda ni, nj: nj)


def gamma_su2(j: float) -> SU2Matrices:
    """Realization with e_+|jm> -> (j-m)|j,m+1> and e_-|jm> -> (j+m)|j,m-1>."""
    return _spin_matrices(j, _coherent_ladder)


def nonhermiticity_witness(gamma: SU2Matrices) -> float:
    """Max-abs difference between the raising matrix and the adjoint of the lowering one.

    Zero only in the trivial cases (j = 0 and j = 1/2, where the integer
    coefficients coincide with the Hermitian square roots); max |2m+1| = 2j-1
    otherwise.
    """
    return float(np.max(np.abs(gamma.e_plus - gamma.e_minus.conj().T)))


def intertwiner(j: float) -> np.ndarray:
    """Diagonal binomial-square-root matrix K with K_mm = sqrt(C(2j, j+m)).

    Exact integer binomials for moderate spins, log-gamma evaluation beyond,
    so entries stay finite and accurate for large j.
    """
    two_j = _check_spin(j)
    dim = two_j + 1
    if two_j <= 60:
        entries = [math.sqrt(math.comb(two_j, p)) for p in range(dim)]
    else:
        entries = [
            math.exp(
                0.5
                * (
                    math.lgamma(two_j + 1)
                    - math.lgamma(p + 1)
                    - math.lgamma(two_j - p + 1)
                )
            )
            for p in range(dim)
        ]
    return np.diag(np.asarray(entries, dtype=complex))


def hermitize_check(j: float) -> float:
    """Residual of K^-1 Gamma K against the Hermitian spin-j matrices."""
    gamma = gamma_su2(j)
    std = su2_matrices(j)
    kmat = intertwiner(j)
    kinv = np.diag(1.0 / np.diag(kmat))
    lowered = kinv @ gamma.e_minus @ kmat
    raised = kinv @ gamma.e_plus @ kmat
    return max(
        float(np.max(np.abs(lowered - std.e_minus))),
        float(np.max(np.abs(raised - std.e_minus.conj().T))),
    )


def s_recursion_check(j: float) -> float:
    """Relative defect of the recursion S_{m+1}(j+m+1) = S_m(j-m) with S = K^2."""
    two_j = _check_spin(j)
    s = np.real(np.diag(intertwiner(j))) ** 2  # index p, m = j - p
    worst = 0.0
    for p in range(1, two_j + 1):
        m = j - p  # S_m at index p, S_{m+1} at index p - 1
        lhs = s[p - 1] * (j + m + 1)
        rhs = s[p] * (j - m)
        worst = max(worst, abs(lhs - rhs) / s[p])
    return worst


def gamma_phase_part(gamma: SU2Matrices) -> np.ndarray:
    """Phase factor of the coherent-state lowering matrix, completed cyclically.

    Gamma(e_-) = E . D with D = sqrt(Gamma(e_-)^dag Gamma(e_-)) diagonal; the
    one undetermined column wraps the lowest weight back to the highest.  The
    result coincides entrywise with the shift completing the Hermitian
    realization.
    """
    e_minus = gamma.e_minus
    dim = e_minus.shape[0]
    weights = np.sqrt(np.real(np.diag(e_minus.conj().T @ e_minus)))
    mat = np.zeros((dim, dim), dtype=complex)
    for p in range(dim):
        if weights[p] > 0:
            mat[:, p] = e_minus[:, p] / weights[p]
    # cyclic closure: the kernel column (m = -j, index 2j) wraps to m = +j
    kernel_cols = [p for p in range(dim) if weights[p] == 0]
    for p in kernel_cols:
        mat[(p + 1) % dim, p] = 1.0
    return mat


def displayed_coefficient(lam: int, root: tuple[int, int], weight: tuple[int, int]) -> float:
    """Linear-in-weight ladder coefficients read off the differential realization.

    Only the two displayed operators are covered; both reduce to the
    occupation of the annihilated mode.
    """
    x, y = weight
    if tuple(root) == (1, 2):
        return (lam - x + y) / 3.0
    if tuple(root) == (2, 3):
        return (lam - x - 2 * y) / 3.0
    raise ValueError(f"no displayed coefficient for root {root}")


def gamma_su3(lam: int) -> GeneratorSet:
    """Coherent-state realization of su(3) on the (lam, 0) occupation basis.

    Every ladder C_ij follows the occupation rule of `_coherent_ladder`, so
    the long roots C_13 and C_31 are built like the displayed ones and
    [C_12, C_23] = C_13 is left for the commutation check to confirm.
    """
    if lam < 0:
        raise ValueError("lam must be non-negative")
    return _generator_set(enumerate_basis(3, lam), _coherent_ladder)


def gamma_su3_commutation_residual(gamma: GeneratorSet) -> float:
    """Max-abs defect of the u(3) and Cartan relations for the coherent-state matrices."""
    return commutation_residual(gamma)


def dft_eigensystem(shift: np.ndarray) -> list[tuple[complex, np.ndarray]]:
    """Exact eigenpairs of a cyclic down-shift: roots of unity and Fourier vectors.

    Input must be the size-N cyclic shift (ones on the subdiagonal plus the
    top-right corner); each eigenvector is unbiased against the basis, every
    component having squared modulus 1/N.
    """
    shift = np.asarray(shift, dtype=complex)
    dim = shift.shape[0]
    expected = su2_shift_E((dim - 1) / 2.0)
    if shift.shape != expected.shape or np.max(np.abs(shift - expected)) > 1e-12:
        raise ValueError("input is not a cyclic shift matrix")
    w = np.exp(2j * np.pi / dim)
    pairs = []
    for k in range(dim):
        vec = np.array([w ** (-k * q) for q in range(dim)], dtype=complex)
        pairs.append((w ** k, vec / math.sqrt(dim)))
    return pairs
