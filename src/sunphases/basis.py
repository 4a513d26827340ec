"""Boson occupation bases and weight-diagram combinatorics for symmetric su(n) irreps.

A symmetric irrep (lambda, 0, ..., 0) of su(n) is carried by the n-mode boson
states |n_1 ... n_n> with fixed total occupation lambda.  This module owns the
canonical ordering of that basis, the weights of its states, the partition of
the basis into su(2) weight strings parallel to a root, and the edge/kernel
counting used to explain phase-operator non-commutativity.

The basis is one (d, n) integer array of occupations, built level by level
with no Python loop over states; the string partition is a sort of that array
and the kernel edges are column tests on it.  State tuples, the state-to-index
map and the strings as tuples are built only when something reads them.

Everything here is exact integer combinatorics; floats appear only in the
optional Cartesian embedding of su(3) weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

Occupations = tuple[int, ...]
Weight = tuple[int, ...]
Root = tuple[int, int]

_SQRT2 = math.sqrt(2.0)
_SQRT6 = math.sqrt(6.0)

#: Cartesian coordinates of the two fundamental weights of su(3).
FUNDAMENTAL_WEIGHTS_SU3: tuple[tuple[float, float], ...] = (
    (1.0 / _SQRT2, 1.0 / _SQRT6),
    (0.0, math.sqrt(2.0 / 3.0)),
)

#: Cartesian coordinates of the two simple roots of su(3), dual to the above.
SIMPLE_ROOTS_SU3: tuple[tuple[float, float], ...] = (
    (_SQRT2, 0.0),
    (-_SQRT2 / 2.0, _SQRT6 / 2.0),
)


def dimension(n: int, lam: int) -> int:
    """Number of n-mode boson states with total occupation lam.

    Raises ValueError for n < 2 or negative lam.
    """
    if n < 2:
        raise ValueError(f"need at least two modes, got n={n}")
    if lam < 0:
        raise ValueError(f"total occupation must be non-negative, got {lam}")
    return math.comb(lam + n - 1, n - 1)


def check_root(n: int, root: Root) -> Root:
    """Validate a ladder-operator label (i, j), 1-based, i != j."""
    i, j = root
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"root indices must lie in 1..{n}, got {root}")
    if i == j:
        raise ValueError(f"root indices must differ, got {root}")
    return (i, j)


@dataclass(frozen=True, eq=False)
class OrderedBasis:
    """Canonically ordered occupation basis of the irrep (lam, 0, ..., 0) of su(n).

    Row k of the (d, n) int64 array `occupations` is state k.  States are
    ordered lexicographically decreasing in (n_1, ..., n_n), so the highest
    weight state |lam 0 ... 0> comes first.
    """

    n: int
    lam: int
    occupations: np.ndarray

    def __len__(self) -> int:
        return len(self.occupations)

    @cached_property
    def states(self) -> tuple[Occupations, ...]:
        """The states as tuples, built on first use."""
        # from a list: tuple() of a bare iterator kept memory resident across calls
        return tuple([tuple(row) for row in self.occupations.tolist()])

    @cached_property
    def _index(self) -> dict[Occupations, int]:
        return {s: k for k, s in enumerate(self.states)}

    def index(self, state: Occupations) -> int:
        """Position of a state in the canonical order."""
        return self._index[tuple(state)]


def enumerate_basis(n: int, lam: int) -> OrderedBasis:
    """Enumerate the occupation basis of (lam, 0, ..., 0) for n boson modes.

    Each level fans every prefix with r quanta left out into the heads
    r, r - 1, ..., 0; the last mode takes what is left.  Raises ValueError
    for n < 2 or negative lam.
    """
    d = dimension(n, lam)
    left = np.array([lam], dtype=np.int64)
    levels = []
    for _ in range(n - 1):
        fan = left + 1
        parent = np.arange(len(left)).repeat(fan)
        offset = np.arange(len(parent)) - (fan.cumsum() - fan)[parent]
        levels.append((parent, left[parent] - offset))
        left = offset
    occ = np.empty((d, n), dtype=np.int64)
    occ[:, -1] = left
    row = np.arange(d)
    for k in range(n - 2, -1, -1):
        parent, head = levels[k]
        occ[:, k] = head[row]
        row = parent[row]
    return OrderedBasis(n=n, lam=lam, occupations=occ)


def weight_of(state: Occupations) -> Weight:
    """Weight of an occupation state: component k is n_k - n_{k+1}."""
    return tuple(state[k] - state[k + 1] for k in range(len(state) - 1))


def cartesian_embedding(weight: Weight, n: int = 3) -> tuple[float, float]:
    """Map an su(3) weight (x, y) to the Cartesian weight plane.

    Only n = 3 has a specified embedding; other ranks raise ValueError.
    """
    if n != 3:
        raise ValueError(f"Cartesian embedding not defined for n={n}")
    if len(weight) != 2:
        raise ValueError(f"su(3) weight needs two components, got {weight}")
    x, y = weight
    w1, w2 = FUNDAMENTAL_WEIGHTS_SU3
    return (x * w1[0] + y * w2[0], x * w1[1] + y * w2[1])


@dataclass(frozen=True, eq=False)
class StringPartition:
    """Partition of a basis into su(2) weight strings parallel to one root.

    `order` lists the basis indices string by string, each string by
    increasing n_i, so C_ij acts as the successor map inside a string;
    string k is order[bounds[k]:bounds[k + 1]].  Occupations of all modes
    other than i and j are constant along a string.  `image` maps each state
    to its successor, the top of a string (n_j = 0) wrapping to its bottom: the
    rows of the ladder C_ij and of its cyclic completion.
    """

    root: Root
    order: np.ndarray
    bounds: np.ndarray
    image: np.ndarray

    @cached_property
    def orbits(self) -> tuple[tuple[int, ...], ...]:
        """The strings as index tuples, ordered by their first index."""
        strings = np.split(self.order, self.bounds[1:-1])
        return tuple(sorted((tuple(s.tolist()) for s in strings), key=lambda s: s[0]))


def su2_strings(basis: OrderedBasis, root: Root) -> StringPartition:
    """Group the basis into su(2)_{ij} strings for the root (i, j).

    A sort on (frozen occupations, n_i); each string starts at its n_i = 0 state.
    """
    i, j = check_root(basis.n, root)
    occ = basis.occupations
    frozen = [occ[:, k] for k in range(basis.n) if k not in (i - 1, j - 1)]
    order = np.lexsort([occ[:, i - 1], *frozen])
    bounds = np.concatenate(((occ[:, i - 1][order] == 0).nonzero()[0], (len(order),)))
    image = np.empty_like(order)
    image[order[:-1]] = order[1:]
    image[order[bounds[1:] - 1]] = order[bounds[:-1]]
    return StringPartition((i, j), order, bounds, image)


def kernel_states(basis: OrderedBasis, root: Root) -> list[int]:
    """Indices of states annihilated by C_ij, i.e. those with n_j = 0.

    These are the edge states of the weight diagram for this root.
    """
    return np.flatnonzero(_kernel_mask(basis, root)).tolist()


def _kernel_mask(basis: OrderedBasis, root: Root) -> np.ndarray:
    _, j = check_root(basis.n, root)
    return basis.occupations[:, j - 1] == 0


def edge_overlap_count(
    basis: OrderedBasis, root_a: Root, root_b: Root
) -> tuple[int, int, int, int]:
    """Cardinalities (|A|, |B|, |A & B|, |A | B|) of two kernel edges."""
    if tuple(root_a) == tuple(root_b):
        raise ValueError("edge overlap needs two distinct roots")
    a, b = _kernel_mask(basis, root_a), _kernel_mask(basis, root_b)
    return tuple(int(np.count_nonzero(m)) for m in (a, b, a & b, a | b))
