import cmath
import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sunphases import basis as bs
from sunphases import pauli, phases
from sunphases.generators import generator_matrix

W = np.exp(2j * math.pi / 3)


def test_clock_matrix_entries():
    pair = pauli.pauli_generators(3)
    assert np.allclose(pair.z, np.diag([W, W**2, 1]), atol=1e-15)


def test_shift_matrix_entries():
    pair = pauli.pauli_generators(3)
    expected = np.array([[0, 1, 0], [0, 0, W**2], [W, 0, 0]])
    assert np.allclose(pair.x, expected, atol=1e-15)


def test_orders():
    pair = pauli.pauli_generators(3)
    eye = np.eye(3)
    assert np.max(np.abs(np.linalg.matrix_power(pair.x, 3) - eye)) < 1e-12
    assert np.max(np.abs(np.linalg.matrix_power(pair.z, 3) - eye)) < 1e-12


def test_exchange_relations_exhaustive():
    pair = pauli.pauli_generators(3)
    assert pauli.pauli_relation_residual(pair) < 1e-12


@pytest.mark.parametrize("d", [2, 4, 5])
def test_general_dimension_relations(d):
    pair = pauli.pauli_generators(d)
    assert pauli.pauli_relation_residual(pair) < 1e-12
    eye = np.eye(d)
    assert np.max(np.abs(np.linalg.matrix_power(pair.x, d) - eye)) < 1e-12


@pytest.mark.parametrize("entry", ["x", "z"])
def test_a_nan_entry_gives_a_nan_relation_residual(entry):
    pair = pauli.pauli_generators(3)
    mat = getattr(pair, entry).copy()
    mat[2, 0] = math.nan
    assert math.isnan(pauli.pauli_relation_residual(dataclasses.replace(pair, **{entry: mat})))


def literal_E12(beta):
    """The 3x3 literal the decorated shift replaced."""
    return np.array(
        [
            [0.0, 1.0, 0.0],
            [0.0, 0.0, cmath.exp(1j * beta)],
            [cmath.exp(-1j * beta), 0.0, 0.0],
        ],
        dtype=complex,
    )


def literal_E23(gamma):
    """The 3x3 literal the decorated shift replaced."""
    return np.array(
        [
            [0.0, cmath.exp(1j * gamma), 0.0],
            [0.0, 0.0, 1.0],
            [cmath.exp(-1j * gamma), 0.0, 0.0],
        ],
        dtype=complex,
    )


def literal_shift(d):
    """X entry by entry, as it was set before the decorated shift."""
    w = pauli.omega(d)
    x = np.zeros((d, d), dtype=complex)
    if d == 3:
        x[0, 1] = 1.0
        x[1, 2] = w**2
        x[2, 0] = w
    else:
        for r in range(d):
            x[r, (r + 1) % d] = 1.0
    return x


def same_bits(a, b):
    """Equal as arrays and bit for bit, so a flipped sign of zero shows."""
    return np.array_equal(a, b) and a.dtype == b.dtype and a.tobytes() == b.tobytes()


ANGLES = st.one_of(
    st.sampled_from([0.0, -0.0, math.pi, -math.pi, 2 * math.pi / 3, -2 * math.pi / 3]),
    st.floats(-10.0, 10.0),
    st.floats(allow_nan=False, allow_infinity=False),
)


class TestDecoratedShift:
    @settings(deadline=None, max_examples=300)
    @given(ANGLES)
    def test_families_match_the_literals(self, angle):
        assert same_bits(pauli.complementary_E12(angle), literal_E12(angle))
        assert same_bits(pauli.complementary_E23(angle), literal_E23(angle))

    @pytest.mark.parametrize("d", range(2, 7))
    def test_shift_matches_the_literal(self, d):
        assert same_bits(pauli.pauli_generators(d).x, literal_shift(d))


def test_rejects_dimension_one():
    with pytest.raises(ValueError):
        pauli.pauli_generators(1)


class TestComplementaryFamily:
    def test_displayed_omega_matrices(self):
        e12, e23, e13 = pauli.omega_solution_matrices()
        assert np.allclose(pauli.complementary_E12(2 * math.pi / 3), e12, atol=1e-13)
        assert np.allclose(pauli.complementary_E23(-2 * math.pi / 3), e23, atol=1e-13)
        assert np.max(np.abs(e12 @ e23 - e13)) < 1e-13

    @pytest.mark.parametrize("angle", np.linspace(-math.pi, math.pi, 9))
    def test_unitarity(self, angle):
        for e in (pauli.complementary_E12(angle), pauli.complementary_E23(angle)):
            assert phases.unitarity_residual(e) < 1e-13

    @pytest.mark.parametrize("angle", np.linspace(0, 2 * math.pi, 7))
    def test_complementarity_relation(self, angle):
        assert pauli.complementarity_check(pauli.complementary_E12(angle)) < 1e-13

    def test_su2_invariant_solution_is_not_complementary(self):
        e = np.array([[0, 1, 0], [-1, 0, 0], [0, 0, 1]], dtype=complex)
        assert pauli.complementarity_check(e) > 0.5

    def test_identity_is_not_complementary(self):
        res = pauli.complementarity_check(np.eye(3, dtype=complex))
        assert res == pytest.approx(abs(1 - W**2))

    def test_polar_constraint(self):
        # only the column over the support of D is pinned by C = E D
        b = bs.enumerate_basis(3, 1)
        c12 = generator_matrix(b, 1, 2)
        d12 = phases.positive_factor(c12)
        for angle in (0.0, 1.0, 2 * math.pi / 3):
            e12 = pauli.complementary_E12(angle)
            assert np.max(np.abs(e12 @ d12 - c12)) < 1e-13
            assert np.allclose(e12[:, 1], [1, 0, 0], atol=1e-15)


class TestAdditivity:
    def test_contains_expected_solutions(self):
        sols = {(round(s.beta, 10), round(s.gamma, 10)) for s in pauli.additivity_solve()}
        assert (0.0, 0.0) in sols
        lattice = round(2 * math.pi / 3, 10)
        assert (lattice, round(4 * math.pi / 3, 10)) in sols  # beta=2pi/3, gamma=-2pi/3 mod 2pi

    def test_simplest_nontrivial_flag(self):
        flagged = [s for s in pauli.additivity_solve() if s.simplest_nontrivial]
        assert len(flagged) == 1
        assert flagged[0].beta == pytest.approx(2 * math.pi / 3)

    def test_solutions_commute_and_are_additive(self):
        for sol in pauli.additivity_solve():
            e12 = pauli.complementary_E12(sol.beta)
            e23 = pauli.complementary_E23(sol.gamma)
            assert np.max(np.abs(e12 @ e23 - e23 @ e12)) < 1e-13
            # common eigenbasis: both diagonal in the eigenbasis of e12 + its powers
            _, vecs = np.linalg.eig(e12 + 0.5 * e12 @ e12)
            for mat in (e12, e23):
                rotated = vecs.conj().T @ mat @ vecs
                off = rotated - np.diag(np.diag(rotated))
                assert np.max(np.abs(off)) < 1e-10


def is_monomial_omega(mat):
    """Each row and column has one entry, a power of omega."""
    for axis in (0, 1):
        if not np.all(np.sum(np.abs(mat) > 1e-12, axis=axis) == 1):
            return False
    entries = mat[np.abs(mat) > 1e-12]
    powers = [W**k for k in range(3)]
    return all(min(abs(e - p) for p in powers) < 1e-12 for e in entries)


def test_solution_matrices_generate_monomial_group():
    # closure over words of length <= 4 in the generalized Pauli group
    e12, e23, e13 = pauli.omega_solution_matrices()
    gens = [e12, e23, e13]
    for length in range(1, 5):
        for word in itertools.product(gens, repeat=length):
            prod = np.eye(3, dtype=complex)
            for factor in word:
                prod = prod @ factor
            assert is_monomial_omega(prod)
