import math

import numpy as np
import pytest

from sunphases import basis as bs
from sunphases.generators import (
    build_generators,
    cartan_matrix,
    commutation_residual,
    generator_matrix,
    su2_matrices,
)


def test_c12_fundamental():
    b = bs.enumerate_basis(3, 1)
    c12 = generator_matrix(b, 1, 2)
    expected = np.zeros((3, 3))
    expected[0, 1] = 1.0
    assert np.array_equal(c12, expected)


def test_boson_matrix_element_sqrt2():
    b = bs.enumerate_basis(3, 2)
    c12 = generator_matrix(b, 1, 2)
    col = b.index((1, 1, 0))
    row = b.index((2, 0, 0))
    assert c12[row, col] == pytest.approx(np.sqrt(2.0))


def test_kernel_columns_are_zero():
    b = bs.enumerate_basis(3, 3)
    c12 = generator_matrix(b, 1, 2)
    for k, state in enumerate(b.states):
        if state[1] == 0:
            assert np.all(c12[:, k] == 0)


def test_rejects_diagonal_label():
    with pytest.raises(ValueError):
        generator_matrix(bs.enumerate_basis(3, 1), 2, 2)


def test_cartans_fundamental():
    b = bs.enumerate_basis(3, 1)
    assert np.array_equal(np.diag(cartan_matrix(b, 1)), [1, -1, 0])
    assert np.array_equal(np.diag(cartan_matrix(b, 2)), [0, 1, -1])
    with pytest.raises(ValueError):
        cartan_matrix(b, 3)


@pytest.mark.parametrize("lam", range(5))
def test_cartans_traceless(lam):
    b = bs.enumerate_basis(3, lam)
    for k in (1, 2):
        assert np.trace(cartan_matrix(b, k)) == 0


@pytest.mark.parametrize("n,lam", [(3, lam) for lam in range(7)] + [(4, lam) for lam in range(5)])
def test_commutation_relations(n, lam):
    gens = build_generators(bs.enumerate_basis(n, lam))
    assert commutation_residual(gens) < 1e-12


def test_hermitian_pairing_exact():
    gens = build_generators(bs.enumerate_basis(3, 4))
    for (i, j), mat in gens.ladders.items():
        assert np.array_equal(mat, gens.ladders[(j, i)].conj().T)


@pytest.mark.parametrize("n,lam", [(3, 3), (4, 2)])
def test_cartan_diagonal_matches_weights(n, lam):
    b = bs.enumerate_basis(n, lam)
    for k in range(1, n):
        diag = np.real(np.diag(cartan_matrix(b, k)))
        weights = [bs.weight_of(s)[k - 1] for s in b.states]
        assert np.array_equal(diag, weights)


def test_su2_ladder_action():
    m = su2_matrices(1)
    # basis order m = 1, 0, -1; e_+ |1,0> = sqrt(2) |1,1>
    vec = np.zeros(3)
    vec[1] = 1.0
    out = m.e_plus @ vec
    assert out[0] == pytest.approx(np.sqrt(2.0))
    # highest weight annihilated
    top = np.zeros(3)
    top[0] = 1.0
    assert np.all(m.e_plus @ top == 0)


@pytest.mark.parametrize("two_j", range(0, 31))
def test_su2_commutators(two_j):
    m = su2_matrices(two_j / 2.0)
    comm = m.e_plus @ m.e_minus - m.e_minus @ m.e_plus
    assert np.max(np.abs(comm - 2 * m.h)) < 1e-13
    assert np.max(np.abs(m.h @ m.e_plus - m.e_plus @ m.h - m.e_plus)) < 1e-13


def test_su2_rejects_bad_spin():
    with pytest.raises(ValueError):
        su2_matrices(0.3)
    with pytest.raises(ValueError):
        su2_matrices(-1)


@pytest.mark.parametrize("spin", [math.inf, math.nan])
def test_su2_rejects_non_finite_spin(spin):
    with pytest.raises(ValueError, match="finite"):
        su2_matrices(spin)


@pytest.mark.parametrize("lam", range(1, 6))
def test_schwinger_consistency(lam):
    # two-mode boson realization at j = lam/2 is the standard spin rep
    b = bs.enumerate_basis(2, lam)
    m = su2_matrices(lam / 2.0)
    # lex-decreasing occupation order has 2m = n1 - n2 descending, matching
    # the m = j..-j ordering of su2_matrices
    assert np.allclose(generator_matrix(b, 1, 2), m.e_plus, atol=1e-13)
    assert np.allclose(generator_matrix(b, 2, 1), m.e_minus, atol=1e-13)
    half_diff = 0.5 * (
        np.diag([s[0] for s in b.states]) - np.diag([s[1] for s in b.states])
    )
    assert np.allclose(m.h, half_diff, atol=1e-13)
