"""Coherent-state (non-Hermitian) realization of su(2) and su(3) at matrix level.

In the exponential-function basis the ladder coefficients are integers,
(j -+ m) for su(2) and mode occupations for su(3), instead of the square
roots of the Hermitian realization.  A diagonal binomial-square-root matrix,
its entries the roots of exact integer binomials to within one ulp at every
spin, intertwines the two pictures; the phase part of the polar decomposition
is unchanged by that similarity, which is the point of the whole construction.
The su(2) sets are the n = 2 `GeneratorSet`s, read through `ladder` as
`Monomial`s: the checks scale their values by the intertwiner's diagonal,
the phase part divides them by their moduli, and every residual compares
two of them in O(d), with no d x d array.

Each su(2) check runs block-wise on the two-mode direct sum over a range of
2j, `enumerate_basis(2, range(...))`, and returns one residual per spin, the
max over that spin's block (`np.maximum.reduceat` at the block starts, where
n_2 = 0): every image stays inside its block, so entry t is bit for bit the
residual of spin t / 2 alone, and the per-spin functions (`hermitize_check`,
`s_recursion_check`, `_phase_part_defect`) are the one-block case.  A NaN in
a block reads NaN for that block.

Basis ordering matches the rest of the package: m = j, ..., -j for su(2) and
the lexicographically decreasing occupation order for su(3).
"""

from __future__ import annotations

import math

import numpy as np

from .basis import OrderedBasis, enumerate_basis
from .generators import (
    GeneratorSet,
    Monomial,
    _check_spin,
    _generator_set,
    build_generators,
    commutation_residual,
)
from .phases import su2_invariant_completion, su2_shift_E

#: Largest 2j whose intertwiner is finite: sqrt(C(2054, 1027)) exceeds the largest float.
_MAX_TWO_J = 2053


def _occupation_coefficient(ni: np.ndarray, nj: np.ndarray) -> np.ndarray:
    """The bare occupation n_j: z_i d/dz_j on monomials."""
    return nj


def _coherent_set(n: int, lam: int | range) -> GeneratorSet:
    """Every ladder C_ij of the (lam, 0) occupation basis with the coefficient n_j."""
    return _generator_set(enumerate_basis(n, lam), _occupation_coefficient)


def gamma_su2(j: float) -> GeneratorSet:
    """Realization with e_+|jm> -> (j-m)|j,m+1> and e_-|jm> -> (j+m)|j,m-1>.

    e_+ = C_12 and e_- = C_21 on the two-mode irrep lambda = 2j, as `gamma_su3` at n = 3.
    """
    return _coherent_set(2, _check_spin(j))


def nonhermiticity_witness(gamma: GeneratorSet) -> float:
    """Max-abs difference between the raising matrix and the adjoint of the lowering one.

    Zero only in the trivial cases (j = 0 and j = 1/2, where the integer
    coefficients coincide with the Hermitian square roots); max |2m+1| = 2j-1
    otherwise.
    """
    return gamma.ladder(1, 2).max_abs_difference(gamma.ladder(2, 1).adjoint())


def _one_spin(j: float) -> range:
    """The range holding 2j alone: spin j as a direct sum of one block."""
    two_j = _check_spin(j)
    return range(two_j, two_j + 1)


def _per_block(defects: np.ndarray, basis: OrderedBasis) -> np.ndarray:
    """The max of defects, one per state of a two-mode basis, over each spin's block.

    Each block opens with its highest weight state, the one with n_2 = 0; a NaN
    in a block reads NaN for that block.
    """
    return np.maximum.reduceat(defects, np.flatnonzero(basis.occupations[:, 1] == 0))


def intertwiner_diagonal(j: float) -> np.ndarray:
    """K_mm = sqrt(C(2j, j+m)) for m = j, ..., -j, within 1 ulp of the exact root.

    K is the diagonal binomial-square-root intertwiner; only its diagonal is
    built, by `_diagonals` on the one block 2j.  Spins whose middle entry
    overflows a float, 2j > 2053, raise ValueError before anything is computed.
    """
    return _diagonals(_one_spin(j))


def _diagonals(two_j: range) -> np.ndarray:
    """K's diagonal on the direct sum over two_j: the blocks of `intertwiner_diagonal`, in order.

    Each binomial is an exact int, the previous one times (2j - p) / (p + 1),
    rooted from its leading 106 or 107 bits: an even number of bits is cut and
    the root is scaled back by half of it, exactly.  Up to 2j = 100 nothing is
    cut and the entry is sqrt(float(C(2j, p))).  Every entry is finite up to
    2j = 2053; a larger 2j raises ValueError before anything is computed.
    """
    if two_j[-1] > _MAX_TWO_J:
        raise ValueError(
            f"2j = {two_j[-1]} exceeds {_MAX_TWO_J}: sqrt(C(2j, j)) overflows a float"
        )
    combs = []
    for top in two_j:
        comb = 1
        for p in range(top + 1):
            combs.append(comb)
            comb = comb * (top - p) // (p + 1)
    cuts = 0
    if max(combs).bit_length() > 106:  # else every cut is 0: no per-entry shifts
        cuts = [max(0, comb.bit_length() - 106) // 2 for comb in combs]
        combs = [comb >> 2 * cut for comb, cut in zip(combs, cuts)]
    return np.ldexp(np.sqrt(np.array(combs, dtype=float)), cuts)


def hermitize_check(j: float) -> float:
    """Residual of K^-1 Gamma K against the Hermitian spin-j matrices."""
    spin = _one_spin(j)
    return float(_hermitize_defects(spin, _diagonals(spin))[0])


def _hermitize_defects(two_j: range, k: np.ndarray) -> np.ndarray:
    """`hermitize_check` of each spin of the direct sum over two_j, given K's diagonal k there."""
    basis = enumerate_basis(2, two_j)
    gamma, std = _generator_set(basis, _occupation_coefficient), build_generators(basis)
    kinv = 1.0 / k
    lowering = std.ladder(2, 1)
    pairs = ((gamma.ladder(2, 1), lowering), (gamma.ladder(1, 2), lowering.adjoint()))
    defects = [
        Monomial(a.rows, (kinv[a.rows] * a.vals) * k).abs_difference(want) for a, want in pairs
    ]
    return _per_block(np.maximum(*defects), basis)


def s_recursion_check(j: float) -> float:
    """Relative defect of the recursion S_{m+1}(j+m+1) = S_m(j-m) with S = K^2."""
    spin = _one_spin(j)
    return float(_recursion_defects(spin, _diagonals(spin))[0])


def _recursion_defects(two_j: range, k: np.ndarray) -> np.ndarray:
    """`s_recursion_check` of each spin of the direct sum over two_j, given K's diagonal k there.

    Each state |j m> with m < j pairs with the state above it, |j m+1>, the
    entry before it in the same block; a block's first state pairs with none
    and reads 0.  Both entries of a pair are scaled by the same power of two,
    which is exact and leaves the relative defect unchanged, so K^2 cannot
    overflow.
    """
    basis = enumerate_basis(2, two_j)
    occ = basis.occupations
    j, m = (occ[1:, 0] + occ[1:, 1]) / 2, (occ[1:, 0] - occ[1:, 1]) / 2
    scale = np.ldexp(1.0, -np.frexp(k[1:])[1])
    s_above, s = (k[:-1] * scale) ** 2, (k[1:] * scale) ** 2  # S_{m+1}, S_m
    defects = np.zeros(len(k))
    defects[1:] = np.abs(s_above * (j + m + 1) - s * (j - m)) / s
    defects[occ[:, 1] == 0] = 0.0  # the pair across a block boundary is no recursion step
    return _per_block(defects, basis)


def gamma_phase_part(gamma: GeneratorSet) -> Monomial:
    """Phase factor of the coherent-state lowering ladder, completed cyclically.

    Gamma(e_-) = E . D with D diagonal, each entry the modulus of its column's
    one value; the one undetermined column, whose value is zero, wraps the
    lowest weight back to the highest.  The result coincides entrywise with
    the shift completing the Hermitian realization.
    """
    lowering = gamma.ladder(2, 1)
    weights = np.abs(lowering.vals)
    # complex division, as on the dense matrix: it rounds v / v as v * (1 / v)
    vals = lowering.vals.astype(complex) / np.where(weights > 0, weights, 1.0)
    vals[weights == 0] = 1.0
    return Monomial(lowering.rows, vals)


def _phase_part_defect(gamma: GeneratorSet) -> float:
    """Max-abs difference between `gamma_phase_part` and the plus completion of C_21."""
    return float(np.max(_phase_part_defects(gamma)))


def _phase_part_defects(gamma: GeneratorSet) -> np.ndarray:
    """`_phase_part_defect` of each spin of a two-mode set, one block or a direct sum."""
    shift = su2_invariant_completion(gamma.basis, (2, 1))
    return _per_block(gamma_phase_part(gamma).abs_difference(shift), gamma.basis)


def _commutant_defects(two_j: range, k: np.ndarray) -> np.ndarray:
    """How far K is from commuting with h, e_- e_+ and e_+ e_-, per spin of the sum over two_j.

    K is diagonal, so its commutator with A has entries (k_i - k_j) A_ij; each
    spin's largest is relative to max(1, max k * max(1, max |A|)) over its block.
    """
    gamma = _coherent_set(2, two_j)
    occ = gamma.basis.occupations
    h = Monomial(np.arange(len(occ)), (occ[:, 0] - occ[:, 1]) / 2)
    raising, lowering = gamma.ladder(1, 2), gamma.ladder(2, 1)
    k_max = _per_block(k, gamma.basis)
    defects = []
    for other in (h, lowering @ raising, raising @ lowering):
        other_max = _per_block(np.abs(other.vals), gamma.basis)
        scale = np.maximum(1.0, k_max * np.maximum(1.0, other_max))
        defects.append(_per_block(np.abs((k[other.rows] - k) * other.vals), gamma.basis) / scale)
    return np.max(defects, axis=0)


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


def gamma_su3(lam: int | range) -> GeneratorSet:
    """Coherent-state realization of su(3) on the (lam, 0) occupation basis.

    Every ladder C_ij has the bare occupation n_j as coefficient, so
    the long roots C_13 and C_31 are built like the displayed ones and
    [C_12, C_23] = C_13 is left for the commutation check to confirm.
    lam may be a range of step 1, as in `enumerate_basis`: the set then acts
    on the direct sum, each ladder inside its irrep's block.  A negative lam
    raises ValueError.
    """
    return _coherent_set(3, lam)


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
    return [(w**k, vec) for k, vec in enumerate(_fourier_vectors(dim))]


def _fourier_vectors(dim: int) -> np.ndarray:
    """The dim x dim array whose row k is the Fourier vector w^(-kq) / sqrt(dim).

    w = e^(2 pi i / dim), and row k is the eigenvector of the size-dim cyclic
    shift for the eigenvalue w^k, each entry the same power of w that a loop
    over q computes.
    """
    w = np.exp(2j * np.pi / dim)
    return w ** -np.multiply.outer(np.arange(dim), np.arange(dim)) / math.sqrt(dim)
