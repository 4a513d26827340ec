"""Matrices of the u(n) ladder operators C_ij = a_i^dag a_j and the Cartan operators.

Matrix elements come from exact integer occupation arithmetic, square-rooted
once, so the commutation residuals of the boson realization stay at machine
epsilon.  Every ladder is a weighted partial permutation, a `Monomial`: its
coefficient, evaluated on the occupation columns, sits at the su(2)-string
image (`StringPartition.image`) of each column.  A `GeneratorSet` keeps the
ladders in that form, `GeneratorSet.ladder` reads one out, and
`commutation_residual` composes them by gathers.  `Monomial.dense` scatters a
matrix, or a range of its rows, only where a caller reads it: the payloads
render a `Monomial` one block of rows at a time, and each Cartan is a diagonal
`Monomial` from `GeneratorSet.cartan`.  Spin j is not a separate structure:
`su2_matrices` is the set of the two-mode irrep lambda = 2j.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .basis import OrderedBasis, Root, enumerate_basis, su2_strings


@dataclass(frozen=True, eq=False)
class Monomial:
    """A d x d weighted partial permutation, held by its columns.

    Column k holds vals[k] at row rows[k]; rows is a permutation of range(d) and
    vals may be zero, so a ladder is one as well as its unitary completion.  XY
    has rows rows_x[rows_y] and values vals_x[rows_y] * vals_y, and X^dag the
    inverse permutation of rows_x as rows and the conjugated values read there.
    """

    rows: np.ndarray
    vals: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.rows), len(self.rows))

    @classmethod
    def from_dense(cls, mat: np.ndarray) -> Monomial:
        """Read a dense matrix; ValueError unless it has one nonzero per row and column."""
        mat = np.asarray(mat)
        nonzero = mat != 0
        # d nonzeros in a d x d matrix, one in every column, on d distinct rows
        if nonzero.ndim == 2 and nonzero.shape[0] == nonzero.shape[1] == np.count_nonzero(nonzero):
            rows = np.argmax(nonzero, axis=0)
            cols = np.arange(len(rows))
            if nonzero[rows, cols].all() and np.bincount(rows).max() == 1:
                return cls(rows, mat[rows, cols])
        raise ValueError("need a monomial matrix, one nonzero per row and column")

    def dense(self, start: int = 0, stop: int | None = None) -> np.ndarray:
        """Rows start:stop (all by default) of the complex d x d matrix: the one scatter."""
        d = len(self.rows)
        stop = d if stop is None else min(stop, d)
        mat = np.zeros((stop - start, d), dtype=complex)
        cols = np.flatnonzero((self.rows >= start) & (self.rows < stop))
        mat[self.rows[cols] - start, cols] = self.vals[cols]
        return mat

    def __matmul__(self, other: Monomial) -> Monomial:
        return Monomial(self.rows[other.rows], self.vals[other.rows] * other.vals)

    def adjoint(self) -> Monomial:
        rows = np.empty_like(self.rows)
        rows[self.rows] = np.arange(len(rows))
        return Monomial(rows, self.vals[rows].conj())

    def max_abs_difference(self, other: Monomial) -> float:
        """Largest entry modulus of self - other in O(d), bit for bit the dense one."""
        return float(np.max(self.abs_difference(other), initial=0.0))

    def abs_difference(self, other: Monomial) -> np.ndarray:
        """Largest entry modulus of self - other in each column, bit for bit the dense one."""
        if self.shape != other.shape:
            raise ValueError(f"dimension mismatch: {self.shape} vs {other.shape}")
        # a shared row holds the difference; elsewhere each value stands against a zero
        apart = np.maximum(np.abs(self.vals), np.abs(other.vals))
        return np.where(self.rows == other.rows, np.abs(self.vals - other.vals), apart)


def _shift(basis: OrderedBasis, i: int, j: int, coefficient: Callable) -> Monomial:
    """The shift moving one boson from mode j to mode i, weighted by coefficient(n_i, n_j).

    coefficient takes the occupation columns and must vanish where n_j = 0:
    there the su(2)-string image wraps to the bottom of the string.
    """
    occ = basis.occupations
    vals = np.asarray(coefficient(occ[:, i - 1], occ[:, j - 1]), dtype=float)
    return Monomial(su2_strings(basis, (i, j)).image, vals)


def _boson_coefficient(ni: np.ndarray, nj: np.ndarray) -> np.ndarray:
    """sqrt(n_j (n_i + 1)), the matrix element of a_i^dag a_j."""
    return np.sqrt(nj * (ni + 1))


def generator_matrix(basis: OrderedBasis, i: int, j: int) -> np.ndarray:
    """Matrix of C_ij = a_i^dag a_j on the ordered basis (i != j).

    The element <s'|C_ij|s> is sqrt(n_j (n_i + 1)) for s' equal to s with one
    boson moved from mode j to mode i, and zero otherwise.
    """
    if i == j:
        raise ValueError("C_ii is diagonal; use GeneratorSet.cartan")
    return _shift(basis, i, j, _boson_coefficient).dense()


@dataclass(frozen=True, eq=False)
class GeneratorSet:
    """All ladders C_ij (i != j) on one basis, each a weighted partial permutation.

    Row p of the (P, d) arrays `images` and `coefficients` is the ladder roots[p]:
    column c of C holds coefficients[p, c] at row images[p, c], zero on the wrap
    column of each string.  `ladder(i, j)` reads one as a `Monomial`.
    """

    basis: OrderedBasis
    roots: tuple[Root, ...]
    images: np.ndarray
    coefficients: np.ndarray

    def ladder(self, i: int, j: int) -> Monomial:
        """The ladder C_ij, row p of the arrays; ValueError for a root the set lacks."""
        if (i, j) not in self.roots:
            raise ValueError(f"no ladder C_{i}{j} among the roots {self.roots}")
        p = self.roots.index((i, j))
        return Monomial(self.images[p], self.coefficients[p])

    def cartan(self, k: int) -> Monomial:
        """h_k = C_kk - C_{k+1,k+1} as a diagonal `Monomial`; ValueError unless 1 <= k <= n-1."""
        if not 1 <= k <= self.basis.n - 1:
            raise ValueError(f"Cartan index must lie in 1..{self.basis.n - 1}, got {k}")
        occ = self.basis.occupations
        return Monomial(np.arange(len(occ)), (occ[:, k - 1] - occ[:, k]).astype(complex))


def _generator_set(basis: OrderedBasis, coefficient: Callable) -> GeneratorSet:
    """Every ladder with i != j, weighted by coefficient(n_i, n_j) as in `_shift`."""
    n, occ = basis.n, basis.occupations
    roots = tuple((i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j)
    images = {}
    for i, j in roots:
        if i < j:  # C_ji walks the strings of C_ij the other way: the inverse image
            image = images[i, j] = su2_strings(basis, (i, j)).image
            images[j, i] = np.empty_like(image)
            images[j, i][image] = np.arange(len(image))
    stacked = np.stack([images[root] for root in roots])
    coefficients = np.array([coefficient(occ[:, i - 1], occ[:, j - 1]) for i, j in roots], float)
    return GeneratorSet(basis, roots, stacked, coefficients)


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
    for a set whose images disagree; a NaN in any block reads NaN.
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
        residual = float(np.maximum(residual, np.max(np.abs(defect))))
        # [h_k, C]: all three terms land on the row images[a]
        v = coefficients[a]
        defect = (cartan[:, images[a]] * v - v * cartan[:, None, :]) - shift[:, a, None] * v
        residual = float(np.maximum(residual, np.max(np.abs(defect))))
    return residual


def _check_spin(j: float) -> int:
    """Return 2j as an int, rejecting invalid spins."""
    if not math.isfinite(2 * j):
        raise ValueError(f"2j must be finite, got j={j}")
    two_j = round(2 * j)
    if two_j < 0 or abs(2 * j - two_j) > 1e-12:
        raise ValueError(f"2j must be a non-negative integer, got j={j}")
    return two_j


def su2_matrices(j: float) -> GeneratorSet:
    """Spin j as the two-mode irrep lambda = 2j, ordered m = j, ..., -j.

    e_+ = C_12 acts as e_+|jm> = sqrt((j-m)(j+m+1)) |j,m+1>, e_- = C_21 is its
    adjoint, and h = h_1 / 2 acts as h|jm> = m|jm>.
    """
    return build_generators(enumerate_basis(2, _check_spin(j)))
