"""The oracle against the program it checks, at sizes where both are cheap."""

import itertools
import math

import numpy as np
import pytest

import oracle
import workloads
from sunphases import basis, generators, pauli, phases

CONVENTIONS = ("plus", "paper-sign")
SIZES = [(3, lam) for lam in range(0, 9)] + [(4, lam) for lam in range(0, 6)] + [
    (5, lam) for lam in range(0, 4)
]


def roots(n):
    return list(itertools.permutations(range(1, n + 1), 2))


@pytest.mark.parametrize("n,lam", SIZES)
@pytest.mark.parametrize("convention", CONVENTIONS)
def test_norm_rows_match_program(n, lam, convention):
    pairs = [(a, b) for a in roots(n) for b in roots(n) if a != b]
    for root_a, root_b in pairs[:: max(1, len(pairs) // 40)]:
        got = phases.noncommutativity_norm(n, lam, root_a, root_b, convention)
        ref = oracle.norm_row(n, lam, root_a, root_b, convention)
        assert (got.dimension, got.raw_norm, got.fixed_point_count) == (
            ref.dimension,
            ref.raw_norm,
            ref.fixed_points,
        ), (root_a, root_b)
        assert got.normalized_norm == ref.normalized_norm


@pytest.mark.parametrize("n,lam", [(3, 4), (3, 7), (4, 3), (5, 2)])
def test_basis_ladders_and_completions_match_program(n, lam):
    prog = basis.enumerate_basis(n, lam)
    irrep = oracle.Irrep(n, lam)
    assert list(prog.states) == irrep.states
    assert [list(basis.weight_of(s)) for s in prog.states] == irrep.weights()
    for i, j in roots(n):
        assert np.array_equal(generators.generator_matrix(prog, i, j), irrep.ladder(i, j))
        for convention in CONVENTIONS:
            factors = phases.polar_decompose(prog, (i, j), convention)
            assert np.array_equal(factors.unitary, irrep.completion(i, j, convention).dense())
            assert np.array_equal(factors.positive, irrep.positive(i, j))


@pytest.mark.parametrize("n,lam", [(3, 5), (3, 6), (4, 3)])
@pytest.mark.parametrize("convention", CONVENTIONS)
def test_principal_angles_are_the_spectrum_of_E(n, lam, convention):
    irrep = oracle.Irrep(n, lam)
    perm = irrep.completion(1, 2, convention)
    angles = oracle.signed_permutation_angles(perm)
    assert np.all(angles > -math.pi) and np.all(angles <= math.pi)
    eig = np.angle(np.linalg.eigvals(perm.dense()))
    eig = np.sort(np.where(eig <= -math.pi + 1e-9, eig + 2 * math.pi, eig))
    assert np.max(np.abs(eig - angles)) < 1e-9


def test_signed_permutation_algebra():
    irrep = oracle.Irrep(3, 5)
    a = irrep.completion(1, 2, "paper-sign")
    b = irrep.completion(3, 1, "paper-sign")
    assert np.array_equal((a @ b).dense(), a.dense() @ b.dense())
    assert np.array_equal(a.inverse().dense(), a.dense().T)
    u = oracle.group_commutator(a, b).dense()
    want, _ = phases.group_commutator(a.dense(), b.dense())
    assert np.array_equal(u, want)


def test_log_log_slope_matches_decay_fit():
    rows = [phases.noncommutativity_norm(4, lam) for lam in range(2, 9)]
    points = [(r.lam, r.normalized_norm) for r in rows]
    assert oracle.log_log_slope(points) == pytest.approx(phases.decay_fit(rows), rel=1e-12)


@pytest.mark.parametrize("angle", [0.0, 0.7, 2 * math.pi / 3, 5.9])
def test_complementary_family_matches_program(angle):
    assert np.max(np.abs(oracle.complementary((1, 2), angle) - pauli.complementary_E12(angle))) < 1e-15
    assert np.max(np.abs(oracle.complementary((2, 3), angle) - pauli.complementary_E23(angle))) < 1e-15
    assert np.max(np.abs(oracle.clock(3) - pauli.pauli_generators(3).z)) < 1e-15
    for root in ((1, 2), (2, 3)):
        eig = np.sort(np.angle(np.linalg.eigvals(oracle.complementary(root, angle))))
        assert np.max(np.abs(eig - oracle.complementary_angles())) < 1e-9


@pytest.mark.parametrize("n", [3, 4])
def test_benchmark_root_pairs_are_exactly_the_noncommuting_ones(n):
    chosen = set(workloads.noncommuting_pairs(n))
    for a in roots(n):
        for b in roots(n):
            if a == b:
                continue
            norms = [oracle.norm_row(n, lam, a, b, "plus").raw_norm for lam in (1, 2, 3)]
            assert ((a, b) in chosen) == all(v > 0 for v in norms), (a, b)
