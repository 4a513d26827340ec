import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from sunphases import basis as bs
from sunphases import coherent, generators, phases
from sunphases.cli import main
from sunphases.coherent import _occupation_coefficient
from sunphases.generators import (
    Monomial,
    _boson_coefficient,
    _generator_set,
    _shift,
    build_generators,
    commutation_residual,
    generator_matrix,
    su2_matrices,
)


def _coherent_ladder(basis, i, j):
    """C_ij with the bare occupation n_j as coefficient, scattered."""
    return _shift(basis, i, j, _occupation_coefficient).dense()


#: The two ladder builders and the coefficient each scatters: Hermitian and coherent-state.
BUILDERS = ((generator_matrix, oracles.boson), (_coherent_ladder, oracles.occupation))


#: Largest lambda drawn per n for the oracle comparison (d at most 84).
LAM_MAX = {2: 12, 3: 8, 4: 6, 5: 4, 6: 3}


@settings(deadline=None, max_examples=60)
@given(st.integers(2, 6).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, LAM_MAX[n]))))
def test_weight_shift_is_bit_identical_to_the_loop(irrep):
    n, lam = irrep
    b = bs.enumerate_basis(n, lam)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i == j:
                continue
            for builder, coefficient in BUILDERS:
                got = builder(b, i, j)
                want = oracles.weight_shift(b, i, j, coefficient)
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("n,lam", [(2, 5), (3, 4), (4, 3), (5, 2), (6, 2)])
def test_zero_columns_are_the_kernel_states(n, lam):
    b = bs.enumerate_basis(n, lam)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j:
                zero = np.flatnonzero(~generator_matrix(b, i, j).any(axis=0)).tolist()
                assert zero == oracles.kernel_states(b, (i, j))


def test_diagonals_read_the_occupation_columns():
    gens = build_generators(bs.enumerate_basis(4, 3))
    for k in range(1, 4):
        want = oracles.cartan_matrix(gens.basis, k)
        assert np.array_equal(gens.cartan(k).dense().view(np.uint64), want.view(np.uint64))


def test_c12_fundamental():
    b = bs.enumerate_basis(3, 1)
    c12 = generator_matrix(b, 1, 2)
    expected = np.zeros((3, 3))
    expected[0, 1] = 1.0
    assert np.array_equal(c12, expected)


def test_boson_matrix_element_sqrt2():
    b = bs.enumerate_basis(3, 2)
    c12 = generator_matrix(b, 1, 2)
    index = oracles.positions(b)
    col, row = index[(1, 1, 0)], index[(2, 0, 0)]
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
    gens = build_generators(bs.enumerate_basis(3, 1))
    assert np.array_equal(np.diag(gens.cartan(1).dense()), [1, -1, 0])
    assert np.array_equal(np.diag(gens.cartan(2).dense()), [0, 1, -1])
    with pytest.raises(ValueError):
        gens.cartan(3)


@pytest.mark.parametrize("lam", range(5))
def test_cartans_traceless(lam):
    gens = build_generators(bs.enumerate_basis(3, lam))
    for k in (1, 2):
        assert np.trace(gens.cartan(k).dense()) == 0


@pytest.mark.parametrize("n,lam", [(3, lam) for lam in range(7)] + [(4, lam) for lam in range(5)])
def test_commutation_relations(n, lam):
    gens = build_generators(bs.enumerate_basis(n, lam))
    assert commutation_residual(gens) < 1e-12


def dense_commutation_residual(gens):
    """Oracle: the relations of `commutation_residual` checked with dense products."""
    basis = gens.basis
    n = basis.n
    ladders = {root: gens.ladder(*root).dense() for root in gens.roots}
    cartans = [gens.cartan(k).dense() for k in range(1, n)]
    occupations = {i: oracles.number_matrix(basis, i) for i in range(1, n + 1)}

    def op(i, j):
        return ladders[(i, j)] if i != j else occupations[i]

    residual = 0.0
    for (i, j), a in ladders.items():
        for (k, l), b in ladders.items():
            expected = 0.0
            if j == k:
                expected = op(i, l)
            if i == l:
                expected = expected - op(k, j)
            defect = a @ b - b @ a - expected
            residual = max(residual, float(np.max(np.abs(defect))))
        # C_ij raises n_i and lowers n_j, shifting weight component k by e_k - e_{k+1}
        moved = [(m == i) - (m == j) for m in range(1, n + 1)]
        shift = [moved[k] - moved[k + 1] for k in range(n - 1)]
        for k, h in enumerate(cartans):
            defect = h @ a - a @ h - shift[k] * a
            residual = max(residual, float(np.max(np.abs(defect))))
    return residual


#: The Hermitian and the coherent-state (bare occupation) generator sets.
REALIZATIONS = (build_generators, lambda b: _generator_set(b, _occupation_coefficient))

#: Largest lambda drawn per n for the dense residual oracle.
ORACLE_LAM_MAX = {2: 12, 3: 7, 4: 5, 5: 3, 6: 2}


def irreps(lam_min=0):
    return st.integers(2, 6).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(lam_min, ORACLE_LAM_MAX[n]))
    )


#: Pair blocks of one ladder, of a few, and the module's own.
BLOCKS = (1, 97, generators._PAIR_BLOCK)


@settings(deadline=None, max_examples=40)
@given(irreps(), st.sampled_from(REALIZATIONS), st.sampled_from(BLOCKS))
def test_residual_is_bit_identical_to_dense_products(irrep, realization, block):
    gens = realization(bs.enumerate_basis(*irrep))
    with mock.patch.object(generators, "_PAIR_BLOCK", block):
        got = commutation_residual(gens)
    assert oracles.same_bits(got, dense_commutation_residual(gens))
    assert got < 1e-12


@settings(deadline=None, max_examples=60)
@given(
    irreps(lam_min=1),
    st.sampled_from(REALIZATIONS),
    st.sampled_from(["move", "scale", "swap"]),
    st.sampled_from([-1.0, 0.5, 2.0, 1 + 2.0**-20]),
    st.sampled_from(BLOCKS),
    st.data(),
)
def test_a_corrupted_set_fails_exactly_as_dense_products_do(
    irrep, realization, kind, factor, block, data
):
    # the index checker must catch every corruption that the dense check catches
    gens = realization(bs.enumerate_basis(*irrep))
    images, coefficients = gens.images.copy(), gens.coefficients.copy()
    p = data.draw(st.integers(0, len(gens.roots) - 1))
    c = data.draw(st.sampled_from(np.flatnonzero(coefficients[p]).tolist()))
    if kind == "move":
        others = sorted(set(range(len(gens.basis))) - {int(images[p, c])})
        images[p, c] = data.draw(st.sampled_from(others))
    elif kind == "scale":
        coefficients[p, c] *= factor
    else:
        q = data.draw(st.integers(0, len(gens.roots) - 1).filter(lambda q: q != p))
        images[[p, q]], coefficients[[p, q]] = images[[q, p]], coefficients[[q, p]]
    broken = dataclasses.replace(gens, images=images, coefficients=coefficients)
    with mock.patch.object(generators, "_PAIR_BLOCK", block):
        got = commutation_residual(broken)
    assert oracles.same_bits(got, dense_commutation_residual(broken))
    assert got > 1e-12


@pytest.mark.parametrize("block", BLOCKS)
@pytest.mark.parametrize("p", [0, -1])
def test_a_nan_coefficient_reads_nan_in_every_block(block, p):
    gens = build_generators(bs.enumerate_basis(3, 4))
    coefficients = gens.coefficients.copy()
    coefficients[p, np.flatnonzero(coefficients[p])[0]] = np.nan
    broken = dataclasses.replace(gens, coefficients=coefficients)
    with mock.patch.object(generators, "_PAIR_BLOCK", block):
        assert math.isnan(commutation_residual(broken))


def refuse_scatter(self, start=0, stop=None):
    raise AssertionError("a dense matrix was scattered")


@pytest.mark.parametrize("n,lam", [(2, 5), (3, 4), (4, 3), (5, 2)])
def test_the_check_scatters_no_dense_matrix(n, lam, monkeypatch):
    gens = build_generators(bs.enumerate_basis(n, lam))
    monkeypatch.setattr(Monomial, "dense", refuse_scatter)
    assert commutation_residual(gens) < 1e-12


def test_gamma_lambda_scatters_no_dense_matrix(monkeypatch):
    monkeypatch.setattr(Monomial, "dense", refuse_scatter)
    result = CliRunner().invoke(main, ["gamma", "--lambda", "4"])
    assert result.exit_code == 0, result.output


def test_gamma_j_builds_no_dense_matrix(monkeypatch):
    built = []
    for name in ("_generator_set", "build_generators"):

        def spy(*args, build=getattr(coherent, name)):
            built.append(build(*args))
            return built[-1]

        monkeypatch.setattr(coherent, name, spy)

    monkeypatch.setattr(Monomial, "dense", refuse_scatter)
    result = CliRunner().invoke(main, ["gamma", "--j", "7.5"])
    assert result.exit_code == 0, result.output
    # the coherent set for the payload and for the check, the Hermitian one for the check
    assert len(built) == 3


@pytest.mark.parametrize("n,lam", [(2, 6), (3, 4), (4, 5), (5, 3), (6, 2)])
def test_each_root_pair_sorts_once_and_keeps_the_images(n, lam, monkeypatch):
    b = bs.enumerate_basis(n, lam)
    sorted_roots = []

    def spy(basis, root):
        sorted_roots.append(root)
        return bs.su2_strings(basis, root)

    monkeypatch.setattr(generators, "su2_strings", spy)
    gens = build_generators(b)
    assert sorted_roots == [(i, j) for i, j in gens.roots if i < j]
    for root, image in zip(gens.roots, gens.images):
        assert np.array_equal(image, bs.su2_strings(b, root).image)


#: Values with signed zeros, ties and ulp-apart pairs, real or complex.
PARTS = [0.0, -0.0, 1.0, -1.0, 0.5, 1.0 + 2.0**-52, 3.0, 2.0**-30]


@st.composite
def monomial_pairs(draw):
    d = draw(st.integers(1, 8))
    rows = np.array(draw(st.permutations(range(d))))
    agree = draw(st.sampled_from(["all", "part", "none"]))
    if agree == "all":
        other = rows.copy()
    elif agree == "none":
        other = np.roll(rows, 1)
    else:
        other = np.array(draw(st.permutations(range(d))))
    values = st.lists(st.sampled_from(PARTS), min_size=d, max_size=d)

    def vals():
        real = np.array(draw(values))
        return real + 1j * np.array(draw(values)) if draw(st.booleans()) else real

    return Monomial(rows, vals()), Monomial(other, vals())


@settings(deadline=None, max_examples=300)
@given(monomial_pairs())
def test_max_abs_difference_is_the_dense_one_bit_for_bit(pair):
    a, b = pair
    want = np.max(np.abs(a.dense() - b.dense()))
    assert oracles.same_bits(a.max_abs_difference(b), want)
    assert oracles.same_bits(b.max_abs_difference(a), want)


@settings(deadline=None, max_examples=100)
@given(monomial_pairs(), st.data())
def test_a_range_of_rows_is_that_slice_of_the_dense_matrix_bit_for_bit(pair, data):
    m = pair[0]
    d = len(m.rows)
    start = data.draw(st.integers(0, d))
    stop = data.draw(st.integers(start, d + 2))  # may run past the last row
    want = m.dense()[start:stop]
    assert np.array_equal(m.dense(start, stop).view(np.uint64), want.view(np.uint64))


def test_a_cartan_index_outside_the_rank_is_refused():
    gens = build_generators(bs.enumerate_basis(3, 2))
    for k in (0, 3):
        with pytest.raises(ValueError, match="Cartan index"):
            gens.cartan(k)


def test_max_abs_difference_needs_equal_shapes():
    with pytest.raises(ValueError, match="dimension mismatch"):
        Monomial(np.arange(2), np.ones(2)).max_abs_difference(Monomial(np.arange(3), np.ones(3)))


@pytest.mark.parametrize("n,lam", [(2, 6), (3, 4), (4, 3), (5, 2)])
def test_scattered_ladders_are_the_builders_bit_for_bit(n, lam):
    b = bs.enumerate_basis(n, lam)
    for realization, (builder, _) in zip(REALIZATIONS, BUILDERS):
        gens = realization(b)
        for i, j in gens.roots:
            got, want = gens.ladder(i, j).dense(), builder(b, i, j)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        for k in range(1, n):
            want = oracles.cartan_matrix(b, k)
            assert np.array_equal(gens.cartan(k).dense().view(np.uint64), want.view(np.uint64))


def test_hermitian_pairing_exact():
    gens = build_generators(bs.enumerate_basis(3, 4))
    for i, j in gens.roots:
        assert np.array_equal(gens.ladder(i, j).dense(), gens.ladder(j, i).dense().conj().T)


@pytest.mark.parametrize("n,lam", [(3, 3), (4, 2)])
def test_cartan_diagonal_matches_weights(n, lam):
    gens = build_generators(bs.enumerate_basis(n, lam))
    b = gens.basis
    for k in range(1, n):
        diag = np.real(np.diag(gens.cartan(k).dense()))
        weights = [bs.weight_of(s)[k - 1] for s in b.states]
        assert np.array_equal(diag, weights)


def test_su2_ladder_action():
    m = su2_matrices(1)
    # basis order m = 1, 0, -1; e_+ |1,0> = sqrt(2) |1,1>
    vec = np.zeros(3)
    vec[1] = 1.0
    e_plus = m.ladder(1, 2).dense()
    out = e_plus @ vec
    assert out[0] == pytest.approx(np.sqrt(2.0))
    # highest weight annihilated
    top = np.zeros(3)
    top[0] = 1.0
    assert np.all(e_plus @ top == 0)


@pytest.mark.parametrize("two_j", range(0, 31))
def test_su2_commutators(two_j):
    m = su2_matrices(two_j / 2.0)
    h, e_plus, e_minus = m.cartan(1).dense() / 2, m.ladder(1, 2).dense(), m.ladder(2, 1).dense()
    comm = e_plus @ e_minus - e_minus @ e_plus
    assert np.max(np.abs(comm - 2 * h)) < 1e-13
    assert np.max(np.abs(h @ e_plus - e_plus @ h - e_plus)) < 1e-13


def test_su2_rejects_bad_spin():
    with pytest.raises(ValueError):
        su2_matrices(0.3)
    with pytest.raises(ValueError):
        su2_matrices(-1)


@pytest.mark.parametrize("spin", [math.inf, math.nan])
def test_su2_rejects_non_finite_spin(spin):
    with pytest.raises(ValueError, match="finite"):
        su2_matrices(spin)


@pytest.mark.parametrize("spin", [1e308, 9e307, -1e308])
def test_a_spin_whose_double_overflows_is_refused(spin):
    # 2j is inf, which round() cannot take
    for build in (generators._check_spin, su2_matrices, phases.su2_shift_E):
        with pytest.raises(ValueError, match="2j must be finite"):
            build(spin)


@pytest.mark.parametrize("lam", range(1, 6))
def test_schwinger_consistency(lam):
    # two-mode boson realization at j = lam/2 is the standard spin rep
    b = bs.enumerate_basis(2, lam)
    m = su2_matrices(lam / 2.0)
    # lex-decreasing occupation order has 2m = n1 - n2 descending, matching
    # the m = j..-j ordering of su2_matrices
    assert np.allclose(generator_matrix(b, 1, 2), m.ladder(1, 2).dense(), atol=1e-13)
    assert np.allclose(generator_matrix(b, 2, 1), m.ladder(2, 1).dense(), atol=1e-13)
    half_diff = 0.5 * (
        np.diag([s[0] for s in b.states]) - np.diag([s[1] for s in b.states])
    )
    assert np.allclose(m.cartan(1).dense() / 2, half_diff, atol=1e-13)


def spin_shifts(j, coefficient):
    """Oracle: the su(2) ladders C_12 and C_21 as two `_shift` calls, each sorting its strings."""
    basis = bs.enumerate_basis(2, round(2 * j))
    return {(1, 2): _shift(basis, 1, 2, coefficient), (2, 1): _shift(basis, 2, 1, coefficient)}


@pytest.mark.parametrize(
    "build, coefficient",
    [(su2_matrices, _boson_coefficient), (coherent.gamma_su2, _occupation_coefficient)],
)
def test_su2_sets_hold_the_two_shifts_bit_for_bit(build, coefficient):
    for two_j in range(0, 61):
        gens = build(two_j / 2.0)
        for root, want in spin_shifts(two_j / 2.0, coefficient).items():
            got = gens.ladder(*root)
            assert np.array_equal(got.rows.view(np.uint64), want.rows.view(np.uint64)), two_j
            assert np.array_equal(got.vals.view(np.uint64), want.vals.view(np.uint64)), two_j


@pytest.mark.parametrize("root", [(1, 1), (1, 3), (3, 1), (0, 2)])
def test_ladder_refuses_a_root_the_set_lacks(root):
    with pytest.raises(ValueError, match="no ladder"):
        su2_matrices(1.5).ladder(*root)
