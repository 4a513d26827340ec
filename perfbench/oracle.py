"""Reference answers for the benchmark, computed without the package under test.

Nothing here imports ``sunphases``.  Every object is rebuilt from the
definitions in the paper:

* the occupation basis |n_1 ... n_n> with sum n_k = lam, ordered
  lexicographically decreasing;
* the ladder operator C_ij = a_i^dag a_j, which moves one boson from mode j
  to mode i with amplitude sqrt(n_j (n_i + 1));
* the SU(2)-invariant completion of its phase, a signed permutation that
  moves each state one step up its su(2)_{ij} string and wraps the top of
  the string back to its bottom with sign +1 ("plus") or -1 ("paper-sign");
  states with n_i = n_j = 0 are fixed.

A signed permutation is kept as two integer arrays, ``image`` and ``sign``,
meaning E e_k = sign[k] e_image[k].  The group commutator then costs O(d),
and ||U - 1||^2 is an exact count: 2 per moved point, 4 per point that is
mapped to itself with sign -1.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

WRAP = {"plus": 1, "paper-sign": -1}


def occupation_states(n: int, lam: int) -> list[tuple[int, ...]]:
    """All n-mode occupations with total lam, lexicographically decreasing."""
    return sorted(
        (s for s in itertools.product(range(lam + 1), repeat=n) if sum(s) == lam),
        reverse=True,
    )


@dataclass(frozen=True)
class SignedPermutation:
    image: np.ndarray
    sign: np.ndarray

    def __matmul__(self, other: "SignedPermutation") -> "SignedPermutation":
        # (A B) e_k = sign_B[k] A e_{img_B[k]}
        return SignedPermutation(
            self.image[other.image], other.sign * self.sign[other.image]
        )

    def inverse(self) -> "SignedPermutation":
        image = np.empty_like(self.image)
        sign = np.empty_like(self.sign)
        image[self.image] = np.arange(len(self.image))
        sign[self.image] = self.sign
        return SignedPermutation(image, sign)

    def dense(self) -> np.ndarray:
        d = len(self.image)
        mat = np.zeros((d, d), dtype=complex)
        mat[self.image, np.arange(d)] = self.sign
        return mat

    def cycles(self) -> list[tuple[int, int]]:
        """(length, product of signs) of every cycle."""
        seen = np.zeros(len(self.image), dtype=bool)
        out = []
        for start in range(len(self.image)):
            if seen[start]:
                continue
            length, product, k = 0, 1, start
            while not seen[k]:
                seen[k] = True
                product *= int(self.sign[k])
                length += 1
                k = int(self.image[k])
            out.append((length, product))
        return out


class Irrep:
    """Occupation basis of (lam, 0, ..., 0) of su(n) with the oracle's operators."""

    def __init__(self, n: int, lam: int):
        self.n = n
        self.lam = lam
        self.states = occupation_states(n, lam)
        self.index = {s: k for k, s in enumerate(self.states)}

    def __len__(self) -> int:
        return len(self.states)

    def weights(self) -> list[list[int]]:
        return [[s[k] - s[k + 1] for k in range(self.n - 1)] for s in self.states]

    def ladder(self, i: int, j: int) -> np.ndarray:
        """Dense C_ij: sqrt(n_j (n_i + 1)) from |s> to |s + e_i - e_j>."""
        d = len(self)
        mat = np.zeros((d, d), dtype=complex)
        for col, s in enumerate(self.states):
            if s[j - 1] == 0:
                continue
            t = list(s)
            t[i - 1] += 1
            t[j - 1] -= 1
            mat[self.index[tuple(t)], col] = math.sqrt(s[j - 1] * (s[i - 1] + 1))
        return mat

    def positive(self, i: int, j: int) -> np.ndarray:
        """D = sqrt(C_ij^dag C_ij) = diag(sqrt(n_j (n_i + 1)))."""
        return np.diag(
            [math.sqrt(s[j - 1] * (s[i - 1] + 1)) for s in self.states]
        ).astype(complex)

    def completion(self, i: int, j: int, convention: str) -> SignedPermutation:
        """SU(2)-invariant completed phase operator E_ij as a signed permutation."""
        wrap = WRAP[convention]
        image = np.empty(len(self), dtype=np.int64)
        sign = np.ones(len(self), dtype=np.int64)
        for k, s in enumerate(self.states):
            t = list(s)
            if s[j - 1] > 0:  # one step up the string
                t[i - 1] += 1
                t[j - 1] -= 1
            elif s[i - 1] > 0:  # top of the string wraps to its bottom
                t[j - 1], t[i - 1] = s[i - 1], 0
                sign[k] = wrap
            image[k] = self.index[tuple(t)]
        return SignedPermutation(image, sign)


def group_commutator(a: SignedPermutation, b: SignedPermutation) -> SignedPermutation:
    """U = A B A^-1 B^-1."""
    return a @ b @ a.inverse() @ b.inverse()


@dataclass(frozen=True)
class NormRow:
    dimension: int
    raw_norm: int
    fixed_points: int

    @property
    def normalized_norm(self) -> float:
        return self.raw_norm / self.dimension


def norm_row(
    n: int, lam: int, root_a: tuple[int, int], root_b: tuple[int, int], convention: str
) -> NormRow:
    """||U - 1||^2 and the fixed points of U = E_a E_b E_a^-1 E_b^-1."""
    irrep = Irrep(n, lam)
    u = group_commutator(
        irrep.completion(*root_a, convention), irrep.completion(*root_b, convention)
    )
    home = u.image == np.arange(len(irrep))
    fixed = int(np.sum(home & (u.sign == 1)))
    flipped = int(np.sum(home & (u.sign == -1)))
    moved = len(irrep) - fixed - flipped
    return NormRow(len(irrep), 2 * moved + 4 * flipped, fixed)


def log_log_slope(points: list[tuple[int, float]]) -> float:
    """Least-squares slope of log(value) against log(lam) over lam >= 2."""
    xs = [math.log(lam) for lam, _ in points if lam >= 2]
    ys = [math.log(v) for lam, v in points if lam >= 2]
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum(
        (x - mx) ** 2 for x in xs
    )


def signed_permutation_angles(perm: SignedPermutation) -> np.ndarray:
    """Sorted eigenphases in (-pi, pi] of a signed permutation, branch exact.

    Each angle is pi m / L with the integer m = 2k (+1 for a cycle whose
    signs multiply to -1) reduced into (-L, L], so -1 always maps to +pi.
    """
    angles = []
    for length, product in perm.cycles():
        for k in range(length):
            m = 2 * k + (1 if product < 0 else 0)
            if m > length:
                m -= 2 * length
            angles.append(math.pi * m / length)
    return np.sort(np.asarray(angles))


def complementary(root: tuple[int, int], angle: float) -> np.ndarray:
    """Complementary phase unitaries of the fundamental su(3) irrep.

    E_12(beta) and E_23(gamma) are the decorated cyclic shifts fixed by
    Z E = w^2 E Z with Z = diag(w, w^2, 1) up to one free angle.
    """
    phase = complex(math.cos(angle), math.sin(angle))
    mat = np.zeros((3, 3), dtype=complex)
    if tuple(root) == (1, 2):
        mat[0, 1], mat[1, 2], mat[2, 0] = 1.0, phase, phase.conjugate()
    elif tuple(root) == (2, 3):
        mat[0, 1], mat[1, 2], mat[2, 0] = phase, 1.0, phase.conjugate()
    else:
        raise ValueError(f"no complementary family for root {root}")
    return mat


def complementary_angles() -> np.ndarray:
    """Sorted eigenphases of every complementary E: 0 and +-2 pi / 3.

    E is one 3-cycle whose entries multiply to 1 * phase * conj(phase) = 1,
    so its spectrum is that of the plain cyclic shift e_0 -> e_2 -> e_1.
    """
    shift = SignedPermutation(np.array([2, 0, 1]), np.ones(3, dtype=np.int64))
    return signed_permutation_angles(shift)


def clock(d: int = 3) -> np.ndarray:
    w = complex(math.cos(2 * math.pi / d), math.sin(2 * math.pi / d))
    return np.diag([w ** (r + 1) for r in range(d)])
