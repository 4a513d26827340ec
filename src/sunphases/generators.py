"""Matrices of the u(n) ladder operators C_ij = a_i^dag a_j and the Cartan operators.

Matrix elements come from exact integer occupation arithmetic, square-rooted
once, so the commutation residuals of the boson realization stay at machine
epsilon.  Every ladder is one scatter of its coefficient, evaluated on the
occupation columns, at the su(2)-string image (`StringPartition.image`); the
matrices are returned dense, as the payloads and the commutation checks read them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .basis import OrderedBasis, Root, enumerate_basis, root_components, su2_strings


def _weight_shift(basis: OrderedBasis, i: int, j: int, coefficient: Callable) -> np.ndarray:
    """Matrix moving one boson from mode j to mode i, weighted by coefficient(n_i, n_j).

    coefficient takes the occupation columns and must vanish where n_j = 0:
    there the image wraps to the bottom of the string, and the entry stays zero.
    """
    image = su2_strings(basis, (i, j)).image
    occ = basis.occupations
    mat = np.zeros((len(image), len(image)), dtype=complex)
    mat[image, np.arange(len(image))] = coefficient(occ[:, i - 1], occ[:, j - 1])
    return mat


def generator_matrix(basis: OrderedBasis, i: int, j: int) -> np.ndarray:
    """Matrix of C_ij = a_i^dag a_j on the ordered basis (i != j).

    The element <s'|C_ij|s> is sqrt(n_j (n_i + 1)) for s' equal to s with one
    boson moved from mode j to mode i, and zero otherwise.
    """
    if i == j:
        raise ValueError("C_ii is diagonal; use number_matrix or cartan_matrix")
    return _weight_shift(basis, i, j, lambda ni, nj: np.sqrt(nj * (ni + 1)))


def number_matrix(basis: OrderedBasis, i: int) -> np.ndarray:
    """Diagonal matrix of the mode occupation C_ii = a_i^dag a_i."""
    if not 1 <= i <= basis.n:
        raise ValueError(f"mode index must lie in 1..{basis.n}, got {i}")
    return np.diag(basis.occupations[:, i - 1].astype(complex))


def cartan_matrix(basis: OrderedBasis, k: int) -> np.ndarray:
    """Diagonal matrix of h_k = C_kk - C_{k+1,k+1}, with 1 <= k <= n-1."""
    if not 1 <= k <= basis.n - 1:
        raise ValueError(f"Cartan index must lie in 1..{basis.n - 1}, got {k}")
    occ = basis.occupations
    return np.diag((occ[:, k - 1] - occ[:, k]).astype(complex))


@dataclass(frozen=True)
class GeneratorSet:
    """All ladder matrices C_ij (i != j) and Cartan matrices on one basis."""

    basis: OrderedBasis
    ladders: dict[Root, np.ndarray]
    cartans: tuple[np.ndarray, ...]


def _generator_set(basis: OrderedBasis, ladder: Callable[..., np.ndarray]) -> GeneratorSet:
    """Every ladder(basis, i, j) with i != j, plus the Cartan matrices."""
    ladders = {
        (i, j): ladder(basis, i, j)
        for i in range(1, basis.n + 1)
        for j in range(1, basis.n + 1)
        if i != j
    }
    cartans = tuple(cartan_matrix(basis, k) for k in range(1, basis.n))
    return GeneratorSet(basis=basis, ladders=ladders, cartans=cartans)


def build_generators(basis: OrderedBasis) -> GeneratorSet:
    """Construct the full generator set for the basis."""
    return _generator_set(basis, generator_matrix)


def commutation_residual(gens: GeneratorSet) -> float:
    """Max-abs defect of the defining u(n) and Cartan commutation relations.

    Checks [C_ij, C_kl] = d_jk C_il - d_il C_kj over all index quadruples,
    and [h_k, C_ij] = (root component) C_ij for every ladder operator.
    """
    basis = gens.basis
    n = basis.n
    occupations = {i: number_matrix(basis, i) for i in range(1, n + 1)}

    def op(i: int, j: int) -> np.ndarray:
        return gens.ladders[(i, j)] if i != j else occupations[i]

    residual = 0.0
    pairs = list(gens.ladders)
    for (i, j) in pairs:
        a = gens.ladders[(i, j)]
        for (k, l) in pairs:
            b = gens.ladders[(k, l)]
            expected = 0.0
            if j == k:
                expected = op(i, l)
            if i == l:
                expected = expected - op(k, j)
            defect = a @ b - b @ a - expected
            residual = max(residual, float(np.max(np.abs(defect))))
        shift = root_components(n, (i, j))
        for k, h in enumerate(gens.cartans):
            defect = h @ a - a @ h - shift[k] * a
            residual = max(residual, float(np.max(np.abs(defect))))
    return residual


@dataclass(frozen=True)
class SU2Matrices:
    """Spin-j matrices (Hermitian or coherent-state), basis ordered m = j, ..., -j."""

    j: float
    h: np.ndarray
    e_plus: np.ndarray
    e_minus: np.ndarray


def _check_spin(j: float) -> int:
    """Return 2j as an int, rejecting invalid spins."""
    if not math.isfinite(j):
        raise ValueError(f"spin must be finite, got j={j}")
    two_j = round(2 * j)
    if two_j < 0 or abs(2 * j - two_j) > 1e-12:
        raise ValueError(f"2j must be a non-negative integer, got j={j}")
    return two_j


def _spin_matrices(j: float, ladder: Callable[..., np.ndarray]) -> SU2Matrices:
    """Spin-j matrices as the two-mode irrep lambda = 2j: e_+ = C_12, e_- = C_21, h = h_1 / 2."""
    basis = enumerate_basis(2, _check_spin(j))
    return SU2Matrices(
        j=j,
        h=cartan_matrix(basis, 1) / 2,
        e_plus=ladder(basis, 1, 2),
        e_minus=ladder(basis, 2, 1),
    )


def su2_matrices(j: float) -> SU2Matrices:
    """Spin-j matrices with e_+|jm> = sqrt((j-m)(j+m+1)) |j,m+1>, h|jm> = m|jm>."""
    return _spin_matrices(j, generator_matrix)
