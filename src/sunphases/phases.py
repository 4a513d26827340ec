"""Polar decomposition of ladder matrices and the phase operators built from it.

The ladder matrix C_ij is rank deficient, so its right polar factorization
C = E D fixes the unitary E only on the support of D = sqrt(C^dag C).  The
undetermined columns sit exactly over the kernel states (n_j = 0) and are
filled here by the SU(2)-invariant cyclic completion: each su(2) weight string
becomes a cycle, the wrap entry carrying a convention-dependent sign.  On the
fundamental su(3) irrep the "complementary" convention uses the `pauli` families.

A completed E is a `Monomial`: the row index and value of the one nonzero in
each column.  The group commutator of two of them is composed on those arrays
and stays one, and `noncommutativity_norm` reads the norm of U - 1 and its
fixed points off it, so a `sweep` costs O(d) per lambda and holds no d x d
array.  It measures how badly the corresponding phases fail to be additive;
`noncommutativity_norm` and `sweep` quantify this across irreps and compare
against the closed-form edge-counting predictions and `exact_raw_norm`.  Dense
matrices appear only at the boundary: `polar_decompose` and `su2_shift_E`
scatter E for the payloads, and `Monomial.from_dense` reads one back.

The routines read the structure they are given.  A ladder C_ij has at most
one nonzero per row, so D is diagonal and `positive_factor` needs no
eigendecomposition.  A completed E is monomial, so `unitarity_residual` reads
its nonzeros and `phase_hermitian` takes the logarithm cycle by cycle; for a
signed permutation the (-pi, pi] branch holds by construction, with no snap.
Input of any other shape is refused with ValueError.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .basis import (
    OrderedBasis,
    Root,
    check_root,
    dimension,
    enumerate_basis,
    kernel_states,
    su2_strings,
)
from .generators import _check_spin, cartan_matrix, generator_matrix
from .pauli import complementary_E12, complementary_E23

#: Unitary completion conventions: wrap phase of each cyclic string.
_WRAP_PHASE = {"plus": 1.0, "paper-sign": -1.0}

#: Complementary completions of the fundamental su(3) irrep, one angle each.
_COMPLEMENTARY = {(1, 2): complementary_E12, (2, 3): complementary_E23}

_KERNEL_REL_THRESHOLD = 1e-10
_UNITARITY_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class Monomial:
    """A d x d matrix with one nonzero per row and column, held by its columns.

    Column k holds vals[k] at row rows[k]; rows is a permutation of range(d).
    Products and adjoints stay in this form: XY has rows rows_x[rows_y] and
    values vals_x[rows_y] * vals_y, and X^dag has the inverse permutation of
    rows_x as rows and the conjugated values read there.
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
        if nonzero.ndim != 2 or any(
            np.any(np.count_nonzero(nonzero, axis=axis) != 1) for axis in (0, 1)
        ):
            raise ValueError("need a monomial matrix, one nonzero per row and column")
        rows = np.argmax(nonzero, axis=0)
        return cls(rows, mat[rows, np.arange(len(rows))])

    def dense(self) -> np.ndarray:
        """The complex d x d matrix."""
        mat = np.zeros(self.shape, dtype=complex)
        mat[self.rows, np.arange(len(self.rows))] = self.vals
        return mat

    def __matmul__(self, other: Monomial) -> Monomial:
        return Monomial(self.rows[other.rows], self.vals[other.rows] * other.vals)

    def adjoint(self) -> Monomial:
        rows = np.empty_like(self.rows)
        rows[self.rows] = np.arange(len(rows))
        return Monomial(rows, self.vals[rows].conj())


def positive_factor(mat: np.ndarray) -> np.ndarray:
    """Hermitian PSD square root of C^dag C.

    C must be square with at most one nonzero per row, as every ladder C_ij
    (a weighted partial permutation) is.  Its columns then have disjoint
    supports, C^dag C is diagonal, and D is the square root of the squared
    column norms; squared norms below _KERNEL_REL_THRESHOLD times
    max(largest, 1) are treated as exact zeros.  Any other input raises
    ValueError.
    """
    mat = np.asarray(mat, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"positive factor needs a square matrix, got {mat.shape}")
    if np.any(np.count_nonzero(mat, axis=1) > 1):
        raise ValueError("positive factor needs at most one nonzero per row")
    evals = np.sum(mat.real**2 + mat.imag**2, axis=0)
    floor = _KERNEL_REL_THRESHOLD * max(float(evals.max()), 1.0)
    return np.diag(np.where(evals > floor, np.sqrt(evals), 0.0).astype(complex))


def su2_invariant_completion(
    basis: OrderedBasis, root: Root, convention: str = "plus"
) -> Monomial:
    """Unitary completion of the phase part of C_ij by cyclic su(2) strings.

    On every string (ordered by increasing n_i) the matrix acts as the
    successor map of C_ij; the wrap entry from the top of the string back to
    the bottom carries phase +1 ("plus") or -1 ("paper-sign").  Singleton
    strings get the identity.  Any other convention, "raw" included, raises
    ValueError.  The result is a signed permutation with real values.
    """
    if convention not in _WRAP_PHASE:
        raise ValueError(f"{convention!r} is not one of {tuple(_WRAP_PHASE)}")
    strings = su2_strings(basis, root)
    order, bounds = strings.order, strings.bounds
    vals = np.ones(len(order))
    vals[order[bounds[1:] - 1][bounds[1:] - bounds[:-1] > 1]] = _WRAP_PHASE[convention]
    return Monomial(strings.image, vals)


@dataclass(frozen=True)
class PolarFactors:
    """Polar factorization C = E D of one ladder matrix.

    E is unitary (or a partial isometry under the raw convention), D is the
    Hermitian PSD factor, ladder is C itself, and kernel_dimension counts the
    columns of the partial isometry that had to be completed.
    """

    unitary: np.ndarray
    positive: np.ndarray
    convention: str
    kernel_dimension: int
    ladder: np.ndarray


def polar_decompose(
    basis: OrderedBasis, root: Root, convention: str = "plus", angle: float | None = None
) -> PolarFactors:
    """Polar-decompose C_ij on the basis with the requested completion.

    The undetermined columns of the partial isometry must coincide with the
    kernel states of the root; a mismatch signals an internal inconsistency
    and raises.  The convention is "plus", "paper-sign", "raw" or
    "complementary".  Only "complementary" takes an angle (beta for root 1,2,
    gamma for root 2,3, default 0), and only on the fundamental su(3) irrep;
    anything else raises ValueError before C is built.
    """
    root = check_root(basis.n, root)
    if convention == "complementary":
        if (basis.n, basis.lam) != (3, 1):
            raise ValueError(
                "complementary completion is defined for the fundamental su(3) irrep only"
            )
        if root not in _COMPLEMENTARY:
            raise ValueError(
                f"complementary completion covers roots 1,2 and 2,3 only, got {root[0]},{root[1]}"
            )
        emat = _COMPLEMENTARY[root](0.0 if angle is None else angle)
    elif angle is not None:
        raise ValueError(f"the {convention!r} completion takes no angle")
    cmat = generator_matrix(basis, *root)
    dmat = positive_factor(cmat)
    kernel = set(kernel_states(basis, root))

    zero_columns = set(np.flatnonzero(~cmat.any(axis=0)).tolist())
    if zero_columns != kernel:
        raise RuntimeError(
            f"partial isometry kernel {sorted(zero_columns)} does not match "
            f"edge states {sorted(kernel)} for root {root}"
        )

    if convention == "raw":
        diag = np.real(np.diag(dmat)).copy()
        inv = np.where(diag > 0, 1.0 / np.where(diag > 0, diag, 1.0), 0.0)
        emat = cmat * inv[np.newaxis, :]
    elif convention != "complementary":
        emat = su2_invariant_completion(basis, root, convention).dense()
    return PolarFactors(
        unitary=emat,
        positive=dmat,
        convention=convention,
        kernel_dimension=len(kernel),
        ladder=cmat,
    )


def su2_shift_E(j: float) -> np.ndarray:
    """Cyclic down-shift completing the su(2) lowering operator, size 2j+1.

    Ones on the subdiagonal and in the top-right corner (basis ordered
    m = j, ..., -j); its (2j+1)-th power is the identity and its eigenvalues
    are the (2j+1)-th roots of unity.  It is the plus completion of C_21 on
    the two-mode irrep lambda = 2j, whose single su(2) string is the whole basis.
    """
    return su2_invariant_completion(enumerate_basis(2, _check_spin(j)), (2, 1)).dense()


def unitarity_residual(mat: np.ndarray) -> float:
    """Largest entry modulus of E^dag E - 1 for a monomial E.

    A monomial E (one nonzero v_k per row and column) has E^dag E = diag(|v_k|^2),
    so its residual is max | |v_k|^2 - 1 |, read off the nonzeros in O(d).
    Any other input raises ValueError.
    """
    return _modulus_defect(Monomial.from_dense(mat).vals)


def _modulus_defect(vals: np.ndarray) -> float:
    return float(np.max(np.abs(vals.real**2 + vals.imag**2 - 1.0)))


def phase_hermitian(unitary: np.ndarray) -> np.ndarray:
    """Hermitian phase matrix phi with exp(i phi) equal to the given unitary.

    The unitary must be monomial, as every completed E is.  It splits into
    cycles, and each cycle's block of phi is built exactly from its
    eigenphases in (-pi, pi] (see `_cycle_phase`); when the cycle product is
    +1 or -1, as for every signed permutation, an eigenvalue -1 gets +pi by
    construction.  Input that is not monomial, or whose nonzeros are not of
    unit modulus, raises ValueError: complete the polar factor first.
    """
    unitary = np.asarray(unitary, dtype=complex)
    try:
        e = Monomial.from_dense(unitary)
    except ValueError:
        e = None
    if e is None or _modulus_defect(e.vals) > _UNITARITY_TOL:
        raise ValueError("input is not a monomial unitary; polar completion required first")
    phi = np.zeros_like(unitary)
    for cycle in _cycles(e.rows):
        block = np.ix_(cycle, cycle)
        phi[block], rebuilt = _cycle_phase(e.vals[cycle])
        if np.max(np.abs(rebuilt - unitary[block])) > 1e-10:
            raise RuntimeError("matrix logarithm failed to reproduce the unitary")
    return phi


def _cycles(rows: np.ndarray) -> list[np.ndarray]:
    """Cycles k_0 -> rows[k_0] -> ... of the permutation taking column k to row rows[k]."""
    rows = rows.tolist()
    seen = [False] * len(rows)
    cycles = []
    for start in range(len(rows)):
        cycle = []
        k = start
        while not seen[k]:
            seen[k] = True
            cycle.append(k)
            k = rows[k]
        if cycle:
            cycles.append(np.array(cycle))
    return cycles


def _cycle_phase(vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Blocks of phi and of exp(i phi) on one cycle of a monomial unitary.

    The unitary takes basis vector k_t to vals[t] k_{t+1} (indices mod L).
    With prefix products P_t = vals[0] ... vals[t-1], the vectors P_t k_t turn
    the cycle into a shift whose wrap is the cycle product p.  Its
    eigenphases theta_m, the L values with L theta_m = arg p mod 2 pi, are
    folded into (-pi, pi], and the block is the twisted circulant
    phi[a, b] = P_a conj(P_b) g(a - b) with g(r) = (1/L) sum_m theta_m
    exp(-i theta_m r); exp(i phi) uses exp(i theta_m) in place of theta_m.
    When p is exactly +1 or -1, theta_m = pi q / L with integer q in (-L, L],
    so an eigenvalue -1 reads +pi whatever the sign of zero in p.  Otherwise
    theta_m comes from arg p, read as +pi when it rounds to -pi; no angle is
    snapped, so the block reproduces the cycle to rounding.
    """
    size = len(vals)
    prefix = np.concatenate(([1.0 + 0.0j], np.cumprod(vals[:-1])))
    p = prefix[-1] * vals[-1]
    m = np.arange(size)
    if p.imag == 0 and abs(p.real) == 1:
        q = 2 * m + (p.real < 0)
        theta = np.pi * (np.where(q > size, q - 2 * size, q) / size)
    else:
        arg = np.angle(p)
        theta = ((np.pi if arg <= -np.pi else arg) + 2 * np.pi * m) / size
        theta[theta > np.pi] -= 2 * np.pi
    waves = np.exp(-1j * np.multiply.outer(np.arange(1 - size, size), theta)) / size
    lag = np.subtract.outer(m, m) + size - 1
    twist = np.multiply.outer(prefix, prefix.conj())
    phi = twist * (waves @ theta)[lag]
    rebuilt = twist * (waves @ np.exp(1j * theta))[lag]
    return 0.5 * (phi + phi.conj().T), rebuilt


def d_identity_residual(lam: int) -> float:
    """Defect of the relations tying differences of squared D factors to Cartans.

    With D_ij = sqrt(C_ij^dag C_ij) the identities read D_21^2 - D_12^2 = h_1,
    D_32^2 - D_23^2 = h_2 and D_31^2 - D_13^2 = h_1 + h_2.  (D_ij^2 is the
    occupation polynomial n_j(n_i + 1), so each difference telescopes to a
    population difference.)
    """
    basis = enumerate_basis(3, lam)
    h1 = cartan_matrix(basis, 1)
    h2 = cartan_matrix(basis, 2)

    def dsq(i: int, j: int) -> np.ndarray:
        d = positive_factor(generator_matrix(basis, i, j))
        return d @ d

    residual = 0.0
    for (i, j), target in (((1, 2), h1), ((2, 3), h2), ((1, 3), h1 + h2)):
        defect = dsq(j, i) - dsq(i, j) - target
        residual = max(residual, float(np.max(np.abs(defect))))
    return residual


def group_commutator(
    a: Monomial | np.ndarray, b: Monomial | np.ndarray
) -> Monomial | tuple[np.ndarray, np.ndarray]:
    """Group commutator U = A B A^dag B^dag of two monomial matrices.

    Given two `Monomial`s, such as the signed permutations
    `su2_invariant_completion` returns, U is composed on their index and
    value arrays in O(d), with no matrix product and no d x d array, and is
    returned as a `Monomial` too.  Dense input, as the payloads hold it, is
    read with `Monomial.from_dense` (ValueError unless monomial) and gives
    the dense pair (U, U - 1).  Raises ValueError for inputs of different
    shapes.
    """
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    dense = not (isinstance(a, Monomial) and isinstance(b, Monomial))
    a, b = (x if isinstance(x, Monomial) else Monomial.from_dense(x) for x in (a, b))
    u = a @ b @ a.adjoint() @ b.adjoint()
    if not dense:
        return u
    u = u.dense()
    return u, u - np.eye(len(u))


@dataclass(frozen=True)
class NoncommutativityReport:
    """One row of a non-commutativity sweep.

    raw_norm is ||M||^2 = Tr(M^dag M) for M = U - 1 with U the group
    commutator of the two completed phase operators; normalized_norm divides
    by the irrep dimension, and fixed_point_count counts the basis states
    that U leaves unchanged.  formula_value carries the closed-form prediction
    when one applies to (n, roots), else None.
    """

    n: int
    lam: int
    dimension: int
    raw_norm: float
    normalized_norm: float
    formula_value: Fraction | None
    fixed_point_count: int
    convention: str


def formula_su3(lam: int) -> Fraction:
    """Closed-form normalized ||M||^2 for su(3): 2[2(lam+1)-1] / (dim).

    It gives 2 at lam = 0, where the single state is fixed and the true norm
    is 0 (see `exact_raw_norm`); for lam >= 1 it equals 2(2 lam + 1) / dim.
    """
    if lam < 0:
        raise ValueError("lam must be non-negative")
    return Fraction(4 * (2 * lam + 1), (lam + 1) * (lam + 2))


def formula_su4(lam: int) -> Fraction:
    """Closed-form normalized ||M||^2 quoted for su(4) (see sweep reports)."""
    if lam < 0:
        raise ValueError("lam must be non-negative")
    numer = 2 * (lam + 1) * (lam + 2) - (lam + 1) - 1
    return Fraction(6 * numer, (lam + 1) * (lam + 2) * (lam + 3))


def _formula_for(n: int, root_a: Root, root_b: Root, lam: int) -> Fraction | None:
    if {tuple(root_a), tuple(root_b)} != {(1, 2), (3, 1)}:
        return None
    if n == 3:
        return formula_su3(lam)
    if n == 4:
        return formula_su4(lam)
    return None


def exact_raw_norm(n: int, lam: int, root_a: Root, root_b: Root) -> int:
    """Exact ||U - 1||^2 for the completed phase operators of two roots, either convention.

    For lam >= 1 and roots sharing exactly one mode it is
    2 [C(lam+n-2, n-2) + C(lam+n-3, n-2) - C(lam+n-4, n-4)], with C(., k) = 0
    for k < 0: 2(2 lam + 1) for su(3) and 2 lam (lam + 2) for su(4), so the
    normalized norm decays as 4(n-1)/lam at every rank.  Every other pair,
    and lam = 0, gives 0.  The law was found by enumeration and is checked
    against the array and dense routes by the tests; it is not derived here.
    """
    dimension(n, lam)
    shared = set(check_root(n, root_a)) & set(check_root(n, root_b))
    if lam == 0 or len(shared) != 1:
        return 0

    def comb(top: int, k: int) -> int:
        return math.comb(top, k) if k >= 0 else 0

    return 2 * (comb(lam + n - 2, n - 2) + comb(lam + n - 3, n - 2) - comb(lam + n - 4, n - 4))


def noncommutativity_norm(
    n: int,
    lam: int,
    root_a: Root = (1, 2),
    root_b: Root = (3, 1),
    convention: str = "plus",
) -> NoncommutativityReport:
    """Build both phase operators and quantify their failure to commute."""
    basis = enumerate_basis(n, lam)
    u = group_commutator(
        su2_invariant_completion(basis, root_a, convention),
        su2_invariant_completion(basis, root_b, convention),
    )
    raw, fixed = _defect(u)
    d = len(basis)
    return NoncommutativityReport(
        n=n,
        lam=lam,
        dimension=d,
        raw_norm=raw,
        normalized_norm=raw / d,
        formula_value=_formula_for(n, root_a, root_b, lam),
        fixed_point_count=fixed,
        convention=convention,
    )


def _defect(u: Monomial) -> tuple[float, int]:
    """||U - 1||^2 and the number of basis states U leaves unchanged.

    Column k of M = U - 1 holds v_k - 1 at row k when U fixes k, else v_k and
    -1 in two rows, so ||M||^2 sums |v_k - 1|^2 over the fixed columns and
    |v_k|^2 + 1 over the moved ones: for signed permutations the exact integer
    2 (moved) + 4 (fixed with sign -1).  A state is unchanged when its column
    is fixed with v_k exactly 1.
    """
    fixed = u.rows == np.arange(len(u.rows))
    moved_vals, fixed_vals = u.vals[~fixed], u.vals[fixed]
    raw = np.sum(np.abs(moved_vals) ** 2 + 1.0) + np.sum(np.abs(fixed_vals - 1.0) ** 2)
    return float(raw), int(np.count_nonzero(fixed_vals == 1))


def sweep(
    n: int,
    lam_min: int,
    lam_max: int,
    root_a: Root = (1, 2),
    root_b: Root = (3, 1),
    convention: str = "plus",
    threads: int = 1,
) -> list[NoncommutativityReport]:
    """Non-commutativity reports for lam = lam_min..lam_max, ascending.

    The per-lam computations are independent; with `threads` above one they
    run on a pool of that many workers, and with one in this thread (a pool
    worker's allocations would take a fresh malloc arena).  The output order
    is by ascending lam regardless.
    """
    if lam_min > lam_max:
        raise ValueError(f"empty sweep range {lam_min}..{lam_max}")
    lams = range(lam_min, lam_max + 1)

    def one(lam: int) -> NoncommutativityReport:
        return noncommutativity_norm(n, lam, root_a, root_b, convention)

    if threads == 1:
        return list(map(one, lams))
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(one, lams))


def decay_fit(
    reports: Iterable[NoncommutativityReport] | Sequence[tuple[int, float]],
) -> float:
    """Least-squares slope of log(normalized norm) against log(lam).

    Accepts reports or bare (lam, value) pairs; needs at least four points
    with distinct lam >= 2, all with a positive norm (a commuting pair has
    none to fit).
    """
    points = []
    for item in reports:
        if isinstance(item, NoncommutativityReport):
            points.append((item.lam, item.normalized_norm))
        else:
            lam, value = item
            points.append((int(lam), float(value)))
    points = [(lam, value) for lam, value in points if lam >= 2]
    if len({lam for lam, _ in points}) < 4:
        raise ValueError("decay fit needs at least four distinct lam >= 2")
    if any(value <= 0 for _, value in points):
        raise ValueError("decay fit needs positive norms; the pair commutes somewhere")
    xs = np.log([lam for lam, _ in points])
    ys = np.log([value for _, value in points])
    slope, _ = np.polyfit(xs, ys, 1)
    return float(slope)
