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
fixed points off it.  The norm measures how badly the corresponding phases
fail to be additive; `noncommutativity_norm` and `sweep` quantify this across
irreps and compare against the closed-form edge-counting predictions and
`exact_raw_norm`.  A `sweep` takes each run of consecutive lambda as one
direct sum, costs O(d) per run and holds no d x d array.  Dense
matrices appear only at the boundary.  `polar_decompose` holds E, D and C as
`Monomial`s, which the `phases` payload renders block by block; phi is the one
dense factor, besides the transient C that `positive_factor` reads and its D.

The routines read the structure they are given.  A ladder C_ij has at most
one nonzero per row, so D is diagonal and `positive_factor` needs no
eigendecomposition.  A completed E is monomial, so `unitarity_residual` reads
its nonzeros, `polar_identity_residual` composes E D and compares it with C
in O(d), and `phase_hermitian` checks exp(i phi) on each cycle's 2L - 1 lags;
for a signed permutation the (-pi, pi] branch holds by construction, with no
snap.  Input of any other shape is refused with ValueError.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

import numpy as np

from .basis import (
    OrderedBasis,
    Root,
    _irreps,
    _kernel_mask,
    check_root,
    dimension,
    enumerate_basis,
    su2_strings,
)
from .generators import Monomial, _boson_coefficient, _check_spin, generator_matrix
from .pauli import complementary_E12, complementary_E23

#: Unitary completion conventions: wrap phase of each cyclic string.
_WRAP_PHASE = {"plus": 1.0, "paper-sign": -1.0}

#: Complementary completions of the fundamental su(3) irrep, one angle each.
_COMPLEMENTARY = {(1, 2): complementary_E12, (2, 3): complementary_E23}

#: Every convention polar_decompose takes; "raw" leaves the kernel columns of E at 0.
_CONVENTIONS = (*_WRAP_PHASE, "raw", "complementary")

_KERNEL_REL_THRESHOLD = 1e-10
_UNITARITY_TOL = 1e-10


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
    successor map of C_ij; the wrap entry from the top (n_j = 0) back to the
    bottom carries phase +1 ("plus") or -1 ("paper-sign"), and a singleton
    string (n_i = n_j = 0) gets the identity.  Any other convention, "raw"
    included, raises ValueError.  The result is a signed permutation with real values.
    """
    if convention not in _WRAP_PHASE:
        raise ValueError(f"{convention!r} is not one of {tuple(_WRAP_PHASE)}")
    strings = su2_strings(basis, root)
    ni, nj = (basis.occupations[:, k - 1] for k in strings.root)
    vals = np.where((nj == 0) & (ni > 0), _WRAP_PHASE[convention], 1.0)
    return Monomial(strings.image, vals)


@dataclass(frozen=True)
class PolarFactors:
    """Polar factorization C = E D of one ladder matrix, each factor a `Monomial`.

    monomial is E: the completed unitary, or under "raw" the partial isometry,
    which is the plus completion with its kernel columns set to 0.  modulus is
    the Hermitian PSD factor D, diagonal, and ladder is C itself.  unitary and
    positive scatter E and D on each read, and kernel_dimension counts the
    zeros of D: the columns of the partial isometry that a completion fills.
    """

    monomial: Monomial
    modulus: Monomial
    convention: str
    ladder: Monomial

    @property
    def unitary(self) -> np.ndarray:
        return self.monomial.dense()

    @property
    def positive(self) -> np.ndarray:
        return self.modulus.dense()

    @property
    def kernel_dimension(self) -> int:
        return int(np.count_nonzero(self.modulus.vals == 0))


def polar_decompose(
    basis: OrderedBasis, root: Root, convention: str = "plus", angle: float | None = None
) -> PolarFactors:
    """Polar-decompose C_ij on the basis with the requested completion.

    D's zero diagonal, the undetermined columns of the partial isometry, must be
    the edge n_j = 0 of the root; a mismatch signals an internal inconsistency
    and raises RuntimeError.  The convention is "plus", "paper-sign", "raw" or
    "complementary".  Only "complementary" takes an angle (beta for root 1,2,
    gamma for root 2,3, default 0), and only on the fundamental su(3) irrep;
    anything else, an unknown convention or a non-finite angle included, raises
    ValueError before C is built.  C takes the rows of the cyclic completion.
    The basis may be a direct sum, `enumerate_basis` on a range: each su(2)
    string lies inside one irrep, so E, D and C are the per-irrep factors
    block for block, and a residual read off them is the max over the blocks.
    """
    root = check_root(basis.n, root)
    if convention not in _CONVENTIONS:
        raise ValueError(f"{convention!r} is not one of {_CONVENTIONS}")
    if convention == "complementary":
        if (basis.n, basis.lam) != (3, 1):
            raise ValueError(
                "complementary completion is defined for the fundamental su(3) irrep only"
            )
        if root not in _COMPLEMENTARY:
            raise ValueError(
                f"complementary completion covers roots 1,2 and 2,3 only, got {root[0]},{root[1]}"
            )
        if angle is not None and not math.isfinite(angle):
            raise ValueError(f"the complementary angle must be finite, got {angle}")
        e = Monomial.from_dense(_COMPLEMENTARY[root](0.0 if angle is None else angle))
    elif angle is not None:
        raise ValueError(f"the {convention!r} completion takes no angle")
    diagonal = np.diagonal(positive_factor(generator_matrix(basis, *root))).copy()
    kernel = _kernel_mask(basis, root)
    if not np.array_equal(diagonal == 0, kernel):
        raise RuntimeError(f"D's zero diagonal does not match the edge n_j = 0 of root {root}")
    if convention != "complementary":
        e = su2_invariant_completion(basis, root, "plus" if convention == "raw" else convention)
        vals = np.where(kernel, 0.0, e.vals) if convention == "raw" else e.vals
        e = Monomial(e.rows, vals.astype(complex))
    # the su(2)-string image: the rows of C, and of every cyclic completion
    image = su2_strings(basis, root).image if convention == "complementary" else e.rows
    ni, nj = (basis.occupations[:, k - 1] for k in root)
    c = Monomial(image, _boson_coefficient(ni, nj))
    return PolarFactors(e, Monomial(np.arange(len(basis)), diagonal), convention, c)


def su2_shift_E(j: float) -> np.ndarray:
    """Cyclic down-shift completing the su(2) lowering operator, size 2j+1.

    Ones on the subdiagonal and in the top-right corner (basis ordered
    m = j, ..., -j); its (2j+1)-th power is the identity and its eigenvalues
    are the (2j+1)-th roots of unity.  It is the plus completion of C_21 on
    the two-mode irrep lambda = 2j, whose single su(2) string is the whole basis.
    """
    return su2_invariant_completion(enumerate_basis(2, _check_spin(j)), (2, 1)).dense()


def unitarity_residual(mat: np.ndarray | Monomial) -> float:
    """Largest entry modulus of E^dag E - 1 for a monomial E.

    A monomial E (one nonzero v_k per row and column) has E^dag E = diag(|v_k|^2),
    so its residual is max | |v_k|^2 - 1 |, read off the nonzeros in O(d).
    E is a `Monomial`, or a dense matrix read with `Monomial.from_dense`; any
    other input raises ValueError.
    """
    return _modulus_defect(_as_monomial(mat).vals)


def polar_identity_residual(factors: PolarFactors) -> float:
    """Largest entry modulus of E D - C, read off the three `Monomial` factors in O(d).

    E D is composed on the index and value arrays and compared with C by
    `Monomial.max_abs_difference`, bit for bit the dense value, whatever the
    structure of D; a NaN in any factor reads NaN.
    """
    return (factors.monomial @ factors.modulus).max_abs_difference(factors.ladder)


def _as_monomial(mat: np.ndarray | Monomial) -> Monomial:
    return mat if isinstance(mat, Monomial) else Monomial.from_dense(mat)


def _modulus_defect(vals: np.ndarray) -> float:
    return float(np.max(np.abs(vals.real**2 + vals.imag**2 - 1.0)))


def phase_hermitian(unitary: np.ndarray | Monomial) -> np.ndarray:
    """Hermitian phase matrix phi with exp(i phi) equal to the given unitary.

    The unitary must be monomial, as every completed E is: a `Monomial`, or a
    dense matrix read with `Monomial.from_dense`.  Each cycle's block of phi is
    built exactly from its eigenphases in (-pi, pi]; exp(i phi) must match the
    cycle to 1e-10 on its 2L - 1 lag values, else RuntimeError (see `_cycle_phase`).
    An eigenvalue -1 of a cycle with product +1 or -1 gets +pi by construction.
    Input that is not monomial, or whose nonzeros are not of unit modulus,
    raises ValueError: complete the polar factor first.
    """
    try:
        e = _as_monomial(unitary)
    except ValueError:
        e = None
    if e is None or not _modulus_defect(e.vals) <= _UNITARITY_TOL:
        raise ValueError("input is not a monomial unitary; polar completion required first")
    phi = np.zeros(e.shape, dtype=complex)
    for cycle in _cycles(e.rows):
        phi[np.ix_(cycle, cycle)] = _cycle_phase(e.vals[cycle].astype(complex))
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


def _cycle_phase(vals: np.ndarray) -> np.ndarray:
    """Block of phi on one cycle of a monomial unitary, checked against the cycle.

    The unitary takes basis vector k_t to vals[t] k_{t+1} (indices mod L).  With
    prefix products P_t = vals[0] ... vals[t-1], the vectors P_t k_t turn the cycle
    into a shift whose wrap is the cycle product p.  Its eigenphases theta_m, the L
    values with L theta_m = arg p mod 2 pi, are folded into (-pi, pi], and the block
    is the twisted circulant phi[a, b] = P_a conj(P_b) g(a - b) with g(r) = (1/L)
    sum_m theta_m exp(-i theta_m r).  exp(i phi), with g_exp from exp(i theta_m), is
    checked, not built: vals at lags 1 and 1 - L, 0 elsewhere (bounded by
    max |P|^2 |g_exp|).  When p is exactly +1 or -1, theta_m = pi q / L with integer
    q in (-L, L], so an eigenvalue -1 reads +pi whatever the sign of zero in p.
    Otherwise theta_m comes from arg p, read as +pi when it rounds to -pi; no angle
    is snapped, so the block reproduces the cycle to rounding.
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
    waves = -1j * np.multiply.outer(np.arange(1 - size, size), theta)
    np.exp(waves, out=waves)
    waves /= size
    g, g_exp = waves @ theta, waves @ np.exp(1j * theta)
    del waves  # free the table before the L x L block
    row = (m + 1) % size  # column t of the cycle holds vals[t] in this row, at lag index k
    k = row - m + (size - 1)
    own = prefix[row] * prefix.conj() * g_exp[k] - vals
    g_exp[k] = 0.0
    if not np.abs(np.concatenate((own, np.abs(prefix).max() ** 2 * g_exp))).max() <= 1e-10:
        raise RuntimeError("matrix logarithm failed to reproduce the unitary")
    phi = np.multiply.outer(prefix, prefix.conj())
    phi = phi * g[np.subtract.outer(m, m) + size - 1]  # not *=: the operand order sets bits
    phi += phi.conj().T
    phi *= 0.5
    return phi


def d_identity_residual(lam: int) -> float:
    """Defect of the relations tying differences of squared D factors to Cartans.

    With D_ij = sqrt(C_ij^dag C_ij) the identities read D_21^2 - D_12^2 = h_1,
    D_32^2 - D_23^2 = h_2 and D_31^2 - D_13^2 = h_1 + h_2.  D is diagonal with
    D_ij^2 = n_j(n_i + 1), so each difference telescopes to the population
    difference n_i - n_j, and only the diagonals are compared.  Each diagonal is
    the ladder's coefficient, read in O(d): the diagonal of `positive_factor` is
    the root of its square, sqrt(fl(y^2)) = y, so the two agree bit for bit.
    """
    occ = enumerate_basis(3, lam).occupations

    def dsq(i: int, j: int) -> np.ndarray:
        d = _boson_coefficient(occ[:, i - 1], occ[:, j - 1])
        return d * d

    defects = [
        np.max(np.abs(dsq(j, i) - dsq(i, j) - (occ[:, i - 1] - occ[:, j - 1])))
        for i, j in ((1, 2), (2, 3), (1, 3))
    ]
    return float(np.max(defects))


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
    lam: int | range,
    root_a: Root = (1, 2),
    root_b: Root = (3, 1),
    convention: str = "plus",
) -> NoncommutativityReport | list[NoncommutativityReport]:
    """Build both phase operators and quantify their failure to commute.

    lam may be a range of step 1; then one report per lam comes back, in
    ascending order, from one pass over the direct sum of those irreps.  Every
    su(2) string lies inside one irrep, so U is block diagonal and each lam
    reads its norm and fixed points off its own block.
    """
    basis = enumerate_basis(n, lam)
    u = group_commutator(
        su2_invariant_completion(basis, root_a, convention),
        su2_invariant_completion(basis, root_b, convention),
    )
    lams = _irreps(lam)
    dims = [dimension(n, one) for one in lams]
    raws, fixeds = _defect(u, np.cumsum([0, *dims[:-1]]))
    reports = [
        NoncommutativityReport(
            n=n,
            lam=one,
            dimension=d,
            raw_norm=raw,
            normalized_norm=raw / d,
            formula_value=_formula_for(n, root_a, root_b, one),
            fixed_point_count=fixed,
            convention=convention,
        )
        for one, d, raw, fixed in zip(lams, dims, raws, fixeds)
    ]
    return reports if isinstance(lam, range) else reports[0]


def _defect(u: Monomial, starts: np.ndarray) -> tuple[list[float], list[int]]:
    """||U - 1||^2 and the number of basis states U leaves unchanged, for each
    diagonal block of U, the blocks beginning at starts.

    Column k of M = U - 1 holds v_k - 1 at row k when U fixes k, else v_k and
    -1 in two rows, so ||M||^2 sums |v_k - 1|^2 over the fixed columns and
    |v_k|^2 + 1 over the moved ones: for signed permutations the exact integer
    2 (moved) + 4 (fixed with sign -1), whatever the order of the sum.  A state
    is unchanged when its column is fixed with v_k exactly 1.
    """
    fixed = u.rows == np.arange(len(u.rows))
    square = np.where(fixed, np.abs(u.vals - 1.0) ** 2, np.abs(u.vals) ** 2 + 1.0)
    raws = np.add.reduceat(square, starts)
    unchanged = np.add.reduceat(fixed & (u.vals == 1), starts, dtype=np.int64)
    return raws.tolist(), unchanged.tolist()


#: States a sweep run may hold even where the largest irrep has fewer.  Timed in
#: process, a run pays about 0.1 ms whatever its size (one enumeration, two
#: sorts, the commutator, the reports) and 0.18-0.23 us per state at n = 3 and 4,
#: so at 2048 states the fixed part is about a fifth of the run, while its
#: arrays, (72 + 12 n) bytes per state, stay near 0.2 MB.
_RUN_STATES = 2048


def _sweep_runs(n: int, lam_min: int, lam_max: int) -> Iterator[range]:
    """Runs of consecutive lam covering lam_min..lam_max, from the top down.

    Each run reaches down while it holds at most max(dimension(n, lam_max),
    _RUN_STATES) states, so small irreps merge up to _RUN_STATES states and no
    run is larger than the largest irrep above that.  Raises ValueError for
    n < 2, a negative lam or an empty range.
    """
    cap = max(dimension(n, lam_max), _RUN_STATES)
    if lam_min > lam_max:
        raise ValueError(f"empty sweep range {lam_min}..{lam_max}")
    dimension(n, lam_min)
    top = lam_max
    while top >= lam_min:
        low, states = top, dimension(n, top)
        while low > lam_min and states + dimension(n, low - 1) <= cap:
            low -= 1
            states += dimension(n, low)
        yield range(low, top + 1)
        top = low - 1


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

    The range is split by `_sweep_runs`, and each run is one
    `noncommutativity_norm` call on a direct sum of at most the largest irrep or
    `_RUN_STATES` states, whichever is more.  The runs are independent; with
    `threads` above one they run on a pool of that many workers, and with one in
    this thread (a pool worker's allocations would take a fresh malloc arena).
    The output order is by ascending lam regardless.
    """
    runs = list(_sweep_runs(n, lam_min, lam_max))[::-1]

    def one(run: range) -> list[NoncommutativityReport]:
        return noncommutativity_norm(n, run, root_a, root_b, convention)

    if threads == 1:
        blocks = list(map(one, runs))
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            blocks = list(pool.map(one, runs))
    return [report for block in blocks for report in block]


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
