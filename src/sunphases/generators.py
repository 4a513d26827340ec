"""Matrices of the u(n) ladder operators C_ij = a_i^dag a_j and the Cartan operators.

Matrix elements come from exact integer occupation arithmetic, square-rooted
once, so the commutation residuals of the boson realization stay at machine
epsilon.  Every ladder is a weighted partial permutation: its coefficient,
evaluated on the occupation columns, sits at the su(2)-string image
(`StringPartition.image`) of each column.  A `GeneratorSet` keeps the ladders
in that form and `commutation_residual` composes them by gathers; dense
matrices are scattered only where a payload or a caller reads them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .basis import OrderedBasis, Root, enumerate_basis, su2_strings


def _shift_arrays(
    basis: OrderedBasis, i: int, j: int, coefficient: Callable
) -> tuple[np.ndarray, np.ndarray]:
    """Image and coefficients of the shift moving one boson from mode j to mode i.

    Column c of the shift holds coefficient(n_i, n_j) at row image[c].  coefficient
    takes the occupation columns and must vanish where n_j = 0: there the image
    wraps to the bottom of the string.
    """
    image = su2_strings(basis, (i, j)).image
    occ = basis.occupations
    return image, np.asarray(coefficient(occ[:, i - 1], occ[:, j - 1]), dtype=float)


def _scatter(image: np.ndarray, coefficients: np.ndarray) -> np.ndarray:
    """Dense complex matrix with coefficients[c] at row image[c] of each column c."""
    mat = np.zeros((len(image), len(image)), dtype=complex)
    mat[image, np.arange(len(image))] = coefficients
    return mat


def _weight_shift(basis: OrderedBasis, i: int, j: int, coefficient: Callable) -> np.ndarray:
    """Matrix moving one boson from mode j to mode i, weighted by coefficient(n_i, n_j)."""
    return _scatter(*_shift_arrays(basis, i, j, coefficient))


def _boson_coefficient(ni: np.ndarray, nj: np.ndarray) -> np.ndarray:
    """sqrt(n_j (n_i + 1)), the matrix element of a_i^dag a_j."""
    return np.sqrt(nj * (ni + 1))


def generator_matrix(basis: OrderedBasis, i: int, j: int) -> np.ndarray:
    """Matrix of C_ij = a_i^dag a_j on the ordered basis (i != j).

    The element <s'|C_ij|s> is sqrt(n_j (n_i + 1)) for s' equal to s with one
    boson moved from mode j to mode i, and zero otherwise.
    """
    if i == j:
        raise ValueError("C_ii is diagonal; use number_matrix or cartan_matrix")
    return _weight_shift(basis, i, j, _boson_coefficient)


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


@dataclass(frozen=True, eq=False)
class GeneratorSet:
    """All ladders C_ij (i != j) on one basis, each a weighted partial permutation.

    Row p of the (P, d) arrays `images` and `coefficients` is the ladder roots[p]:
    column c of C holds coefficients[p, c] at row images[p, c], zero on the wrap
    column of each string.  The dense `ladders` and `cartans` are built on
    first use.
    """

    basis: OrderedBasis
    roots: tuple[Root, ...]
    images: np.ndarray
    coefficients: np.ndarray

    @cached_property
    def ladders(self) -> dict[Root, np.ndarray]:
        """Dense ladder matrices, keyed by root."""
        pairs = zip(self.images, self.coefficients)
        return {root: _scatter(*pair) for root, pair in zip(self.roots, pairs)}

    @cached_property
    def cartans(self) -> tuple[np.ndarray, ...]:
        """Dense Cartan matrices h_1, ..., h_{n-1}."""
        return tuple(cartan_matrix(self.basis, k) for k in range(1, self.basis.n))


def _generator_set(basis: OrderedBasis, coefficient: Callable) -> GeneratorSet:
    """Every ladder with i != j, weighted by coefficient(n_i, n_j) as in `_shift_arrays`."""
    n = basis.n
    roots = tuple((i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j)
    images, coefficients = zip(*(_shift_arrays(basis, i, j, coefficient) for i, j in roots))
    return GeneratorSet(basis, roots, np.stack(images), np.stack(coefficients))


def build_generators(basis: OrderedBasis) -> GeneratorSet:
    """Construct the full generator set for the basis."""
    return _generator_set(basis, _boson_coefficient)


#: Most (ladder pair, column) entries that `commutation_residual` composes at once.
#: A block holds about 40 words per entry, so its temporaries stay in cache, and
#: small irreps peak no higher than dense products of their matrices did.
_PAIR_BLOCK = 1 << 10


def commutation_residual(gens: GeneratorSet) -> float:
    """Max-abs defect of the defining u(n) and Cartan commutation relations.

    Checks [C_ij, C_kl] = d_jk C_il - d_il C_kj over all index quadruples,
    and [h_k, C_ij] = (root component) C_ij for every ladder operator.

    Column c of a product of two ladders is one entry, found by following
    both images, so every term is a gather and no matrix is formed.  The
    arithmetic is the dense one entry by entry, (AB - BA) - E with
    E = (0.0 + X) - Y, and each row that a term lands on is summed on its
    own, so the residual equals that of dense products bit for bit, also
    for a set whose images disagree.
    """
    basis = gens.basis
    n, d = basis.n, len(basis)
    images, coefficients = gens.images, gens.coefficients
    count = len(gens.roots)
    occ = basis.occupations.astype(float)
    # operators by slot: the ladders, the number operators C_ii, a zero operator
    rows = np.concatenate((images.ravel(), np.arange((n + 1) * d) % d))
    vals = np.concatenate((coefficients, occ.T, np.zeros((1, d)))).ravel()
    zero = count + n
    slot = np.full((n + 1, n + 1), zero)
    first, second = np.array(gens.roots).T
    slot[first, second] = np.arange(count)
    np.fill_diagonal(slot[1:, 1:], np.arange(count, zero))
    # pair (p, q) = [C_ij, C_kl]: X = C_il if j = k, Y = C_kj if i = l
    i, j, k, l = first[:, None], second[:, None], first, second
    plus = np.where(j == k, slot[i, l], zero)[..., None] * d
    minus = np.where(i == l, slot[k, j], zero)[..., None] * d
    cartan = (occ[:, :-1] - occ[:, 1:]).T  # row k - 1: the diagonal of h_k
    unit = np.eye(n)
    moved = unit[first - 1] - unit[second - 1]  # C_ij raises n_i and lowers n_j
    shift = (moved[:, :-1] - moved[:, 1:]).T  # the root components of each ladder

    residual = 0.0
    step = max(1, _PAIR_BLOCK // (count * d))
    for lo in range(0, count, step):
        a = np.arange(lo, min(lo + step, count))
        # flat slots of the terms AB, BA, X and Y in every column of every pair
        flat = np.empty((4, len(a), count, d), dtype=np.intp)
        flat[0] = a[:, None, None] * d + images
        flat[1] = np.arange(count)[:, None] * d + images[a][:, None, :]
        flat[2], flat[3] = plus[a] + np.arange(d), minus[a] + np.arange(d)
        row, val = rows[flat], vals[flat]
        val[0] *= coefficients
        val[1] *= coefficients[a][:, None, :]
        # on[t, s]: term s where it lands on the row of term t, else zero
        on = np.where(row[:, None] == row, val, 0.0)
        defect = (on[:, 0] - on[:, 1]) - ((0.0 + on[:, 2]) - on[:, 3])
        residual = max(residual, float(np.max(np.abs(defect))))
        # [h_k, C]: all three terms land on the row images[a]
        v = coefficients[a]
        defect = (cartan[:, images[a]] * v - v * cartan[:, None, :]) - shift[:, a, None] * v
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
