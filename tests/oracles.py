"""Oracles the test modules share, each built from `OrderedBasis.states`.

The library holds one form of each object: a ladder or a Cartan is a
`Monomial`, the basis an occupation array, the intertwiner its diagonal.  The
dense matrices, the state-to-index map and the strings as tuples that the tests
compare against are built here, one state at a time, with no call into the
array code under test; `strings_of` reads a partition into the form of `strings`.
"""

import math

import numpy as np


def same_bits(x, y):
    """Whether two floats have one bit pattern: -0.0 differs from 0.0, NaN equals NaN."""
    return np.float64(x).view(np.uint64) == np.float64(y).view(np.uint64)


def positions(basis):
    """The state-to-index map of the canonical order."""
    return {state: k for k, state in enumerate(basis.states)}


def kernel_states(basis, root):
    """Indices of the states that C_ij annihilates, those with n_j = 0."""
    return [k for k, state in enumerate(basis.states) if state[root[1] - 1] == 0]


def strings(basis, root):
    """The su(2) strings by grouping states on their frozen occupations in a dict,
    members by increasing n_i and strings by first index."""
    i, j = root
    groups = {}
    for idx, state in enumerate(basis.states):
        key = tuple(v for k, v in enumerate(state) if k not in (i - 1, j - 1))
        groups.setdefault(key, []).append(idx)
    found = [tuple(sorted(m, key=lambda idx: basis.states[idx][i - 1])) for m in groups.values()]
    return tuple(sorted(found, key=lambda string: string[0]))


def strings_of(partition):
    """A `StringPartition`'s strings as index tuples, in the order of `strings`."""
    found = np.split(partition.order, partition.bounds[1:-1])
    return tuple(sorted((tuple(s.tolist()) for s in found), key=lambda s: s[0]))


def boson(ni, nj):
    """sqrt(n_j (n_i + 1)), the Hermitian ladder coefficient."""
    return math.sqrt(nj * (ni + 1))


def occupation(ni, nj):
    """n_j, the coherent-state ladder coefficient."""
    return nj


def weight_shift(basis, i, j, coefficient):
    """The dense C_ij: one state at a time, each target looked up in the index map."""
    index = positions(basis)
    mat = np.zeros((len(basis), len(basis)), dtype=complex)
    for col, state in enumerate(basis.states):
        nj = state[j - 1]
        if nj == 0:
            continue
        target = list(state)
        target[i - 1] += 1
        target[j - 1] -= 1
        mat[index[tuple(target)], col] = coefficient(state[i - 1], nj)
    return mat


def number_matrix(basis, i):
    """The dense mode occupation C_ii = a_i^dag a_i."""
    return np.diag(np.array([state[i - 1] for state in basis.states], dtype=complex))


def cartan_matrix(basis, k):
    """The dense Cartan h_k = C_kk - C_{k+1,k+1}."""
    return np.diag(np.array([state[k - 1] - state[k] for state in basis.states], dtype=complex))


def block_offsets(n, lams):
    """(lam, first row) of each irrep's block in the direct sum over lams, by ascending lam."""
    offsets, start = [], 0
    for lam in lams:
        offsets.append((lam, start))
        start += math.comb(lam + n - 1, n - 1)
    return offsets


def same_block(rows, vals, start, part_rows, part_vals):
    """Whether rows[start:] begins with part_rows moved down by start, and vals with
    part_vals, bit for bit: one irrep's operator as a block of the direct sum's."""
    stop = start + len(part_rows)
    vals, part_vals = np.ascontiguousarray(vals[start:stop]), np.ascontiguousarray(part_vals)
    return (
        np.array_equal(rows[start:stop], np.asarray(part_rows) + start)
        and vals.dtype == part_vals.dtype
        and np.array_equal(vals.view(np.uint64), part_vals.view(np.uint64))
    )
