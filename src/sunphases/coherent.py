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

Basis ordering matches the rest of the package: m = j, ..., -j for su(2) and
the lexicographically decreasing occupation order for su(3).
"""

from __future__ import annotations

import math

import numpy as np

from .basis import enumerate_basis
from .generators import (
    GeneratorSet,
    Monomial,
    _check_spin,
    _generator_set,
    commutation_residual,
    su2_matrices,
)
from .phases import su2_invariant_completion, su2_shift_E

#: Largest 2j whose intertwiner is finite: sqrt(C(2054, 1027)) exceeds the largest float.
_MAX_TWO_J = 2053


def _occupation_coefficient(ni: np.ndarray, nj: np.ndarray) -> np.ndarray:
    """The bare occupation n_j: z_i d/dz_j on monomials."""
    return nj


def gamma_su2(j: float) -> GeneratorSet:
    """Realization with e_+|jm> -> (j-m)|j,m+1> and e_-|jm> -> (j+m)|j,m-1>.

    e_+ = C_12 and e_- = C_21 on the two-mode irrep lambda = 2j, as `gamma_su3` at n = 3.
    """
    return _generator_set(enumerate_basis(2, _check_spin(j)), _occupation_coefficient)


def nonhermiticity_witness(gamma: GeneratorSet) -> float:
    """Max-abs difference between the raising matrix and the adjoint of the lowering one.

    Zero only in the trivial cases (j = 0 and j = 1/2, where the integer
    coefficients coincide with the Hermitian square roots); max |2m+1| = 2j-1
    otherwise.
    """
    return gamma.ladder(1, 2).max_abs_difference(gamma.ladder(2, 1).adjoint())


def intertwiner_diagonal(j: float) -> np.ndarray:
    """K_mm = sqrt(C(2j, j+m)) for m = j, ..., -j, within 1 ulp of the exact root.

    K is the diagonal binomial-square-root intertwiner; only its diagonal is built.
    Each binomial is an exact int, the previous one times (2j - p) / (p + 1),
    rooted from its leading 106 or 107 bits: an even number of bits is cut and
    math.ldexp scales back by half of it, exactly.  Up to 2j = 60 nothing is cut
    and the entry is sqrt(float(C(2j, p))).  Every entry is finite up to
    2j = 2053; larger spins, whose middle entry overflows a float, raise
    ValueError before anything is computed.
    """
    two_j = _check_spin(j)
    if two_j > _MAX_TWO_J:
        raise ValueError(f"2j = {two_j} exceeds {_MAX_TWO_J}: sqrt(C(2j, j)) overflows a float")
    diagonal = np.empty(two_j + 1)
    comb = 1
    for p in range(two_j + 1):
        cut = max(0, comb.bit_length() - 106) // 2
        diagonal[p] = math.ldexp(math.sqrt(comb >> 2 * cut), cut)
        comb = comb * (two_j - p) // (p + 1)
    return diagonal


def hermitize_check(j: float) -> float:
    """Residual of K^-1 Gamma K against the Hermitian spin-j matrices."""
    gamma, std = gamma_su2(j), su2_matrices(j)
    k = intertwiner_diagonal(j)
    kinv = 1.0 / k
    lowering = std.ladder(2, 1)
    pairs = ((gamma.ladder(2, 1), lowering), (gamma.ladder(1, 2), lowering.adjoint()))
    defects = [
        Monomial(a.rows, (kinv[a.rows] * a.vals) * k).max_abs_difference(want) for a, want in pairs
    ]
    return float(np.max(defects))


def s_recursion_check(j: float) -> float:
    """Relative defect of the recursion S_{m+1}(j+m+1) = S_m(j-m) with S = K^2.

    Each neighbouring pair of K entries is scaled by the same power of two, which
    is exact and leaves the relative defect unchanged, so K^2 cannot overflow.
    """
    k = intertwiner_diagonal(j)  # index p, m = j - p
    scale = np.ldexp(1.0, -np.frexp(k[1:])[1])
    s_above, s = (k[:-1] * scale) ** 2, (k[1:] * scale) ** 2  # S_{m+1}, S_m
    m = j - np.arange(1, len(k))
    return float(np.max(np.abs(s_above * (j + m + 1) - s * (j - m)) / s, initial=0.0))


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
    return gamma_phase_part(gamma).max_abs_difference(su2_invariant_completion(gamma.basis, (2, 1)))


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
    return _generator_set(enumerate_basis(3, lam), _occupation_coefficient)


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
