import dataclasses
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from sunphases import basis as bs
from sunphases import generators, pauli, phases
from sunphases.generators import generator_matrix
from sunphases.phases import Monomial

E12_SIGNED = np.array([[0, 1, 0], [-1, 0, 0], [0, 0, 1]], dtype=complex)
E23_SIGNED = np.array([[1, 0, 0], [0, 0, 1], [0, -1, 0]], dtype=complex)


def permutation_of(basis, root, convention="plus"):
    """Oracle: the completion as a pure-python permutation with signs, state by state.

    A state with n_j > 0 goes to the one with n_i + 1, n_j - 1; a state with
    n_j = 0 wraps to the bottom of its string, n_i <- 0 and n_j <- n_i, with
    the wrap sign unless it is a singleton.
    """
    i, j = root
    wrap = 1 if convention == "plus" else -1
    index = oracles.positions(basis)
    perm = {}
    sign = {}
    for idx, state in enumerate(basis.states):
        image = list(state)
        if state[j - 1] > 0:
            image[i - 1], image[j - 1] = state[i - 1] + 1, state[j - 1] - 1
        else:
            image[i - 1], image[j - 1] = 0, state[i - 1]
        perm[idx] = index[tuple(image)]
        sign[idx] = wrap if state[j - 1] == 0 and state[i - 1] > 0 else 1
    return perm, sign


def dense_commutator(ea, eb):
    """Oracle: the group commutator from dense matrix products."""
    u = ea @ eb @ ea.conj().T @ eb.conj().T
    return u, u - np.eye(u.shape[0])


#: Largest lambda drawn per n, keeping d at or below 126.
LAM_MAX = {2: 8, 3: 8, 4: 6, 5: 5, 6: 4}


@st.composite
def completion_pairs(draw):
    """(n, lam, root_a, root_b, convention) for two completed phase operators."""
    n = draw(st.integers(2, 6))
    lam = draw(st.integers(0, LAM_MAX[n]))
    roots = st.tuples(st.integers(1, n), st.integers(1, n)).filter(lambda r: r[0] != r[1])
    convention = draw(st.sampled_from(["plus", "paper-sign"]))
    return n, lam, draw(roots), draw(roots), convention


@st.composite
def monomials(draw, d):
    """A random d x d monomial matrix with unit-modulus complex nonzeros."""
    rows = draw(st.permutations(range(d)))
    angles = draw(st.lists(st.floats(-math.pi, math.pi), min_size=d, max_size=d))
    mat = np.zeros((d, d), dtype=complex)
    mat[rows, np.arange(d)] = np.exp(1j * np.array(angles))
    return mat


@st.composite
def monomial_pairs(draw):
    d = draw(st.integers(1, 12))
    return draw(monomials(d)), draw(monomials(d))


#: Every (n, lam) with n <= 5 and lam <= 6.
SMALL_IRREPS = [(n, lam) for n in range(2, 6) for lam in range(7)]


def ladder_roots(n):
    return [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]


def dense_unitarity_residual(mat):
    """Oracle: the largest entry of |E^dag E - 1| from the dense product."""
    return float(np.max(np.abs(mat.conj().T @ mat - np.eye(mat.shape[0]))))


@st.composite
def monomial_unitaries(draw):
    """Completions (n <= 5, lam <= 6, any root, both conventions), random unit-modulus
    monomials, single long cycles, d = 1 and the identity."""
    kind = draw(st.sampled_from(["completion", "monomial", "long cycle", "d = 1", "identity"]))
    if kind == "completion":
        n, lam = draw(st.sampled_from(SMALL_IRREPS))
        root = draw(st.sampled_from(ladder_roots(n)))
        convention = draw(st.sampled_from(["plus", "paper-sign"]))
        return phases.su2_invariant_completion(bs.enumerate_basis(n, lam), root, convention).dense()
    if kind == "monomial":
        return draw(st.integers(1, 12).flatmap(monomials))
    if kind == "long cycle":
        return phases.su2_shift_E(draw(st.integers(0, 80)) / 2)
    if kind == "d = 1":
        return draw(monomials(1))
    return np.eye(draw(st.integers(1, 12)), dtype=complex)


def eigh_positive_factor(mat):
    """Oracle: D for any square complex C through eigh of C^dag C."""
    evals, evecs = np.linalg.eigh(mat.conj().T @ mat)
    floor = phases._KERNEL_REL_THRESHOLD * max(float(evals[-1]), 1.0)
    roots = np.where(evals > floor, np.sqrt(np.clip(evals, 0.0, None)), 0.0)
    return (evecs * roots) @ evecs.conj().T


def schur_phase(unitary):
    """Oracle: phi for any unitary through its complex Schur form.

    Schur diagonalizes the normal input unitarily, so degenerate eigenvalues
    need no special care.  The angles are np.angle's, in [-pi, pi]: an
    eigenvalue -1 may read -pi, depending on rounding.
    """
    tmat, zmat = scipy.linalg.schur(unitary, output="complex")
    phi = (zmat * np.angle(np.diag(tmat))) @ zmat.conj().T
    return 0.5 * (phi + phi.conj().T)


def circle_gap(a, b):
    """Largest distance mod 2 pi between the sorted angles of a and b.

    Both lists are cut at the middle of the widest gap of a and read
    counterclockwise from there, so angles near -pi and +pi pair up.
    """
    ring = np.sort(np.mod(a, 2 * math.pi))
    gaps = np.diff(np.append(ring, ring[0] + 2 * math.pi))
    cut = ring[np.argmax(gaps)] + gaps.max() / 2
    a, b = (np.sort(np.mod(np.asarray(x) - cut, 2 * math.pi)) for x in (a, b))
    return float(np.max(np.abs(a - b)))


class TestPositiveFactor:
    def test_fundamental_d12(self):
        b = bs.enumerate_basis(3, 1)
        d12 = phases.positive_factor(generator_matrix(b, 1, 2))
        assert np.allclose(d12, np.diag([0, 1, 0]), atol=1e-14)

    def test_fundamental_d23(self):
        b = bs.enumerate_basis(3, 1)
        d23 = phases.positive_factor(generator_matrix(b, 2, 3))
        assert np.allclose(d23, np.diag([0, 0, 1]), atol=1e-14)

    def test_zero_matrix(self):
        assert np.array_equal(phases.positive_factor(np.zeros((4, 4))), np.zeros((4, 4)))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            phases.positive_factor(np.zeros((2, 3)))

    @pytest.mark.parametrize("n, lam", SMALL_IRREPS)
    def test_ladders_match_the_eigh_route_bit_for_bit(self, n, lam):
        b = bs.enumerate_basis(n, lam)
        for root in ladder_roots(n):
            c = generator_matrix(b, *root)
            got = phases.positive_factor(c).view(np.uint64)
            assert np.array_equal(got, eigh_positive_factor(c).view(np.uint64))

    @settings(deadline=None, max_examples=50)
    @given(st.integers(1, 12), st.integers(0, 2**32 - 1))
    def test_disjoint_supports_give_the_gram_root(self, d, seed):
        # one nonzero per row, several per column, and some columns empty
        rng = np.random.default_rng(seed)
        mat = np.zeros((d, d), dtype=complex)
        values = rng.normal(size=d) + 1j * rng.normal(size=d)
        mat[np.arange(d), rng.integers(0, max(d // 2, 1), d)] = values
        dmat = phases.positive_factor(mat)
        assert np.array_equal(dmat, np.diag(np.diag(dmat)))
        assert np.max(np.abs(dmat - eigh_positive_factor(mat))) < 1e-12
        assert np.max(np.abs(dmat @ dmat - mat.conj().T @ mat)) < 1e-12

    def test_dense_input_goes_through_eigh(self):
        # refused by positive_factor; the eigh oracle still gives its root
        rng = np.random.default_rng(7)
        dense = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        two_in_a_row = np.diag([1.0, 2.0, 3.0]).astype(complex)
        two_in_a_row[0, 2] = 1j
        for mat in (dense, two_in_a_row):
            with pytest.raises(ValueError, match="one nonzero per row"):
                phases.positive_factor(mat)
            dmat = eigh_positive_factor(mat)
            assert np.max(np.abs(dmat @ dmat - mat.conj().T @ mat)) < 1e-12

    @pytest.mark.parametrize("n, lam", [(n, lam) for n in range(2, 6) for lam in range(9)])
    def test_diagonal_is_the_boson_coefficient_bit_for_bit(self, n, lam):
        # sqrt(fl(y^2)) = y, so D's diagonal is the ladder's coefficient y itself
        b = bs.enumerate_basis(n, lam)
        occ = b.occupations
        for i, j in ladder_roots(n):
            want = np.diagonal(phases.positive_factor(generator_matrix(b, i, j))).real
            got = generators._boson_coefficient(occ[:, i - 1], occ[:, j - 1])
            assert np.array_equal(bits(got), bits(want)), (i, j)

    @pytest.mark.parametrize("lam", range(7))
    def test_commutes_with_cartans(self, lam):
        b = bs.enumerate_basis(3, lam)
        for root in [(1, 2), (2, 3), (1, 3), (2, 1), (3, 2), (3, 1)]:
            d = phases.positive_factor(generator_matrix(b, *root))
            for k in (1, 2):
                h = oracles.cartan_matrix(b, k)
                assert np.max(np.abs(h @ d - d @ h)) < 1e-12


class TestCompletion:
    def test_paper_sign_root12(self):
        b = bs.enumerate_basis(3, 1)
        e = phases.su2_invariant_completion(b, (1, 2), "paper-sign").dense()
        assert np.array_equal(e, E12_SIGNED)

    def test_paper_sign_root23(self):
        b = bs.enumerate_basis(3, 1)
        e = phases.su2_invariant_completion(b, (2, 3), "paper-sign").dense()
        assert np.array_equal(e, E23_SIGNED)

    def test_plus_convention_lambda2_permutation(self):
        b = bs.enumerate_basis(3, 2)
        e = phases.su2_invariant_completion(b, (1, 2), "plus").dense()
        index = oracles.positions(b)
        cycle = [(0, 2, 0), (1, 1, 0), (2, 0, 0), (0, 2, 0)]
        for src, dst in zip(cycle, cycle[1:]):
            assert e[index[dst], index[src]] == 1
        assert e[index[(1, 0, 1)], index[(0, 1, 1)]] == 1
        assert e[index[(0, 1, 1)], index[(1, 0, 1)]] == 1
        assert e[index[(0, 0, 2)], index[(0, 0, 2)]] == 1

    @pytest.mark.parametrize("convention", ["plus", "paper-sign"])
    @pytest.mark.parametrize("n,lam,root", [(3, 3, (1, 2)), (3, 5, (3, 1)), (4, 3, (2, 3))])
    def test_unitarity_and_polar_identity(self, convention, n, lam, root):
        b = bs.enumerate_basis(n, lam)
        factors = phases.polar_decompose(b, root, convention)
        c = generator_matrix(b, *root)
        assert phases.unitarity_residual(factors.unitary) < 1e-12
        assert np.max(np.abs(factors.unitary @ factors.positive - c)) < 1e-12
        assert factors.kernel_dimension == len(oracles.kernel_states(b, root))

    @pytest.mark.parametrize("convention", ["plus", "paper-sign", "raw"])
    @pytest.mark.parametrize("n,lam,root", [(2, 4, (2, 1)), (3, 3, (1, 2)), (4, 2, (3, 1))])
    def test_a_zero_of_d_off_the_edge_is_refused(self, monkeypatch, convention, n, lam, root):
        b = bs.enumerate_basis(n, lam)
        inside = np.flatnonzero(b.occupations[:, root[1] - 1] > 0)[-1]

        def zero_one_column(mat, original=phases.positive_factor):
            dmat = original(mat)
            dmat[:, inside] = 0.0
            return dmat

        monkeypatch.setattr(phases, "positive_factor", zero_one_column)
        with pytest.raises(RuntimeError, match="does not match"):
            phases.polar_decompose(b, root, convention)

    @pytest.mark.parametrize("convention", ["raw", "su2-invariant-plus", "nope"])
    def test_completion_takes_only_the_unitary_conventions(self, convention):
        with pytest.raises(ValueError):
            phases.su2_invariant_completion(bs.enumerate_basis(3, 2), (1, 2), convention)

    def test_factors_carry_the_short_convention_name(self):
        b = bs.enumerate_basis(3, 2)
        assert phases.polar_decompose(b, (1, 2), "paper-sign").convention == "paper-sign"
        assert phases.polar_decompose(b, (1, 2), "raw").convention == "raw"
        with pytest.raises(ValueError):
            phases.polar_decompose(b, (1, 2), "raw-partial")

    @pytest.mark.parametrize("convention", ["nope", "raw-partial", "su2-invariant-plus"])
    def test_an_unknown_convention_is_refused_before_c_is_built(self, monkeypatch, convention):
        def refuse(*args):
            raise AssertionError("C was built")

        monkeypatch.setattr(phases, "generator_matrix", refuse)
        with pytest.raises(ValueError, match="is not one of"):
            phases.polar_decompose(bs.enumerate_basis(3, 2), (1, 2), convention)

    def test_conventions_differ_by_diagonal_signs(self):
        b = bs.enumerate_basis(3, 4)
        plus = phases.su2_invariant_completion(b, (1, 2), "plus").dense()
        signed = phases.su2_invariant_completion(b, (1, 2), "paper-sign").dense()
        assert np.array_equal(plus != 0, signed != 0)  # same permutation support
        ratio = signed[plus != 0] / plus[plus != 0]
        assert set(np.round(np.real(ratio)).astype(int)) <= {1, -1}
        assert np.allclose(np.abs(ratio), 1.0)

    def test_string_power_identity(self):
        b = bs.enumerate_basis(3, 3)
        for convention, wrap in [("plus", 1), ("paper-sign", -1)]:
            e = phases.su2_invariant_completion(b, (1, 2), convention).dense()
            for orbit in oracles.strings(b, (1, 2)):
                block = e[np.ix_(orbit, orbit)]
                power = np.linalg.matrix_power(block, len(orbit))
                expected = np.eye(len(orbit)) * (wrap if len(orbit) > 1 else 1)
                assert np.allclose(power, expected, atol=1e-13)

    def test_raw_partial_isometry(self):
        b = bs.enumerate_basis(3, 2)
        factors = phases.polar_decompose(b, (1, 2), "raw")
        c = generator_matrix(b, 1, 2)
        assert np.max(np.abs(factors.unitary @ factors.positive - c)) < 1e-12
        for k in oracles.kernel_states(b, (1, 2)):
            assert np.all(factors.unitary[:, k] == 0)


def bits(mat):
    """The bit patterns of a complex array, so that -0.0 and 0.0 differ."""
    return np.ascontiguousarray(mat).view(np.uint64)


class TestKeptMonomial:
    """polar_decompose holds E as one Monomial under every convention; what is read
    from it equals what is read from the dense E, bit for bit."""

    @pytest.mark.parametrize(
        "n, lam, convention",
        [
            (n, lam, convention)
            for convention in ("plus", "paper-sign", "raw")
            for n, lam in ((2, 5), (3, 0), (3, 4), (4, 3))
        ]
        + [(3, 1, "complementary")],
    )
    def test_reads_equal_the_dense_reads(self, n, lam, convention):
        b = bs.enumerate_basis(n, lam)
        if convention == "complementary":
            cases = [(root, a) for root in [(1, 2), (2, 3)] for a in (None, -0.0, 0.7, math.pi)]
        else:
            cases = [(root, None) for root in ladder_roots(n)]
        for root, angle in cases:
            factors = phases.polar_decompose(b, root, convention, angle)
            e, dense = factors.monomial, factors.unitary
            assert factors.kernel_dimension == len(oracles.kernel_states(b, root))
            assert phases.polar_identity_residual(factors) == dense_polar_identity(factors)
            if convention == "raw":
                # a partial isometry: Monomial.from_dense and the logarithm refuse its dense E
                assert phases.unitarity_residual(e) == dense_unitarity_residual(dense)
                with pytest.raises(ValueError, match="polar completion"):
                    phases.phase_hermitian(e)
                continue
            assert phases.unitarity_residual(e) == phases.unitarity_residual(dense)
            phi = phases.phase_hermitian(e)
            assert np.array_equal(bits(phi), bits(phases.phase_hermitian(dense)))

    @pytest.mark.parametrize("root", [(1, 2), (2, 3)])
    def test_complementary_keeps_its_monomial(self, root):
        factors = phases.polar_decompose(bs.enumerate_basis(3, 1), root, "complementary", 0.7)
        family = TestComplementaryConvention.FAMILY[root](0.7)
        assert np.array_equal(bits(factors.monomial.dense()), bits(family))

    @pytest.mark.parametrize("n, lam", SMALL_IRREPS)
    def test_raw_is_the_plus_completion_less_its_kernel_columns(self, n, lam):
        b = bs.enumerate_basis(n, lam)
        for root in ladder_roots(n):
            raw = phases.polar_decompose(b, root, "raw").monomial
            plus = phases.polar_decompose(b, root, "plus").monomial
            kernel = np.zeros(len(b), dtype=bool)
            kernel[oracles.kernel_states(b, root)] = True
            assert np.array_equal(raw.rows, plus.rows)
            assert np.array_equal(bits(raw.vals), bits(np.where(kernel, 0.0, 1.0).astype(complex)))
            assert kernel.any() and phases.unitarity_residual(raw) == 1.0

    def test_a_monomial_off_the_unit_circle_is_refused(self):
        e = phases.su2_invariant_completion(bs.enumerate_basis(3, 2), (1, 2))
        with pytest.raises(ValueError, match="polar completion"):
            phases.phase_hermitian(Monomial(e.rows, 2 * e.vals))


class TestDirectSumFactors:
    """polar_decompose on a direct sum of irreps gives each irrep's E, D and C as
    a block, its rows moved down by the block's first row."""

    LAMS = range(0, 7)

    @pytest.mark.parametrize("convention", ["plus", "paper-sign", "raw"])
    @pytest.mark.parametrize("root", ladder_roots(3))
    def test_factors_are_the_per_irrep_factors_block_for_block(self, root, convention):
        whole = phases.polar_decompose(bs.enumerate_basis(3, self.LAMS), root, convention)
        offsets = oracles.block_offsets(3, self.LAMS)
        assert len(whole.monomial.rows) == offsets[-1][1] + math.comb(self.LAMS[-1] + 2, 2)
        kernel = 0
        for lam, start in offsets:
            part = phases.polar_decompose(bs.enumerate_basis(3, lam), root, convention)
            for name in ("monomial", "modulus", "ladder"):
                got, want = getattr(whole, name), getattr(part, name)
                assert oracles.same_block(got.rows, got.vals, start, want.rows, want.vals), (
                    lam,
                    name,
                )
            kernel += part.kernel_dimension
        assert whole.convention == convention and whole.kernel_dimension == kernel

    def test_complementary_refuses_a_direct_sum(self):
        with pytest.raises(ValueError, match="fundamental"):
            phases.polar_decompose(bs.enumerate_basis(3, range(1, 2)), (1, 2), "complementary")


class TestComplementaryConvention:
    FAMILY = {(1, 2): pauli.complementary_E12, (2, 3): pauli.complementary_E23}

    @settings(deadline=None, max_examples=100)
    @given(
        st.sampled_from([(1, 2), (2, 3)]),
        st.one_of(st.none(), st.sampled_from([0.0, -0.0, math.pi]), st.floats(-1e6, 1e6)),
    )
    def test_is_the_family(self, root, angle):
        b = bs.enumerate_basis(3, 1)
        factors = phases.polar_decompose(b, root, "complementary", angle)
        expected = self.FAMILY[root](0.0 if angle is None else angle)
        assert factors.unitary.tobytes() == expected.tobytes()
        c = generator_matrix(b, *root)
        assert np.max(np.abs(factors.unitary @ factors.positive - c)) < 1e-13
        assert factors.kernel_dimension == 2
        assert factors.convention == "complementary"

    @pytest.mark.parametrize("n, lam", [(3, 0), (3, 2), (2, 1), (4, 1)])
    def test_only_the_fundamental_su3_irrep(self, n, lam):
        with pytest.raises(ValueError, match="fundamental su\\(3\\) irrep"):
            phases.polar_decompose(bs.enumerate_basis(n, lam), (1, 2), "complementary")

    @pytest.mark.parametrize("root", [(1, 3), (3, 1), (2, 1), (3, 2)])
    def test_only_roots_12_and_23(self, root):
        with pytest.raises(ValueError, match=f"got {root[0]},{root[1]}$"):
            phases.polar_decompose(bs.enumerate_basis(3, 1), root, "complementary", 1.0)

    @pytest.mark.parametrize("root", [(1, 2), (2, 3)])
    @pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf])
    def test_a_non_finite_angle_is_refused_before_c_is_built(self, monkeypatch, root, angle):
        def refuse(*args):
            raise AssertionError("C was built")

        monkeypatch.setattr(phases, "generator_matrix", refuse)
        with pytest.raises(ValueError, match="must be finite"):
            phases.polar_decompose(bs.enumerate_basis(3, 1), root, "complementary", angle)

    @pytest.mark.parametrize("convention", ["plus", "paper-sign", "raw"])
    @pytest.mark.parametrize("angle", [0.0, 1.0])
    def test_other_conventions_take_no_angle(self, convention, angle):
        with pytest.raises(ValueError, match="takes no angle"):
            phases.polar_decompose(bs.enumerate_basis(3, 1), (1, 2), convention, angle)


class TestUnitarityResidual:
    @pytest.mark.parametrize("n, lam", SMALL_IRREPS)
    def test_signed_permutations_give_the_dense_value(self, n, lam):
        b = bs.enumerate_basis(n, lam)
        for root in ladder_roots(n):
            for convention in ("plus", "paper-sign"):
                e = phases.su2_invariant_completion(b, root, convention).dense()
                assert phases.unitarity_residual(e) == dense_unitarity_residual(e) == 0.0

    @pytest.mark.parametrize("k", range(-3, 4))
    @pytest.mark.parametrize("family", [pauli.complementary_E12, pauli.complementary_E23])
    def test_lattice_complementary_gives_the_dense_value(self, family, k):
        # the dense value also carries the rounding of the BLAS kernel's products
        e = family(2 * math.pi * k / 3)
        assert phases.unitarity_residual(e) == pytest.approx(
            dense_unitarity_residual(e), abs=np.finfo(float).eps
        )

    def test_monomial_reads_its_entries(self):
        e = np.diag([1.0, 2.0, -1.0]).astype(complex)[:, [2, 0, 1]]
        assert phases.unitarity_residual(e) == 3.0

    @pytest.mark.parametrize("seed", range(5))
    def test_other_input_uses_the_dense_product(self, seed):
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))
        with pytest.raises(ValueError, match="monomial"):
            phases.unitarity_residual(q)

    def test_two_nonzeros_in_a_row_use_the_dense_product(self):
        shear = np.array([[1, 1], [0, 1]], dtype=complex)
        with pytest.raises(ValueError, match="monomial"):
            phases.unitarity_residual(shear)
        assert dense_unitarity_residual(shear) == 1.0


def dense_polar_identity(factors):
    """Oracle: the largest entry of |E D - C| from the dense product."""
    return float(np.max(np.abs(factors.unitary @ factors.positive - factors.ladder.dense())))


class TestPolarIdentityResidual:
    @pytest.mark.parametrize("n, lam", SMALL_IRREPS)
    def test_completions_give_the_dense_value(self, n, lam):
        b = bs.enumerate_basis(n, lam)
        for root in ladder_roots(n):
            for convention in ("plus", "paper-sign", "raw"):
                factors = phases.polar_decompose(b, root, convention)
                assert phases.polar_identity_residual(factors) == dense_polar_identity(factors)

    @pytest.mark.parametrize("root", ladder_roots(3))
    def test_su3_lambda_28_gives_the_dense_value(self, root):
        b = bs.enumerate_basis(3, 28)
        for convention in ("plus", "paper-sign", "raw"):
            factors = phases.polar_decompose(b, root, convention)
            assert phases.polar_identity_residual(factors) == dense_polar_identity(factors)

    @settings(deadline=None, max_examples=50)
    @given(st.sampled_from([(1, 2), (2, 3)]), st.floats(-10, 10))
    def test_complementary_gives_the_dense_value(self, root, angle):
        factors = phases.polar_decompose(bs.enumerate_basis(3, 1), root, "complementary", angle)
        assert phases.polar_identity_residual(factors) == dense_polar_identity(factors)

    @pytest.mark.parametrize("seed", range(4))
    def test_planted_defects_and_a_monomial_d_give_the_dense_product(self, seed):
        # E D is composed, not assumed diagonal: D permutes here, and C = E D but for
        # one planted value or one swapped pair of rows, wherever it sits
        rng = np.random.default_rng(seed)
        d = 130
        e, dmod = (
            Monomial(rng.permutation(d), np.exp(1j * rng.uniform(-np.pi, np.pi, d)))
            for _ in range(2)
        )
        c = e @ dmod
        for col in range(d):
            vals = c.vals.copy()
            vals[col] += 100.0
            rows = c.rows.copy()
            rows[[col, (col + 1) % d]] = rows[[(col + 1) % d, col]]
            for ladder in (Monomial(c.rows, vals), Monomial(rows, c.vals)):
                factors = phases.PolarFactors(
                    monomial=e, modulus=dmod, convention="test", ladder=ladder
                )
                got = phases.polar_identity_residual(factors)
                # row rows[k] of E D is vals[k] times row k of D, gathered entry by entry
                gathered = e.vals[:, None] * dmod.dense() - ladder.dense()[e.rows]
                assert oracles.same_bits(got, np.max(np.abs(gathered))), col
                # the dense value also carries the rounding of the BLAS kernel's products
                assert got == pytest.approx(dense_polar_identity(factors), rel=1e-14), col

    def test_other_unitaries_are_refused(self):
        # a shear has no Monomial, so no factors can hold it as E
        shear = np.array([[1, 1], [0, 1]], dtype=complex)
        with pytest.raises(ValueError, match="monomial"):
            phases.PolarFactors(
                monomial=Monomial.from_dense(shear),
                modulus=Monomial.from_dense(shear),
                convention="test",
                ladder=Monomial.from_dense(shear),
            )

    @pytest.mark.parametrize("row", [0, 63, 64, 434])
    def test_a_nan_in_the_modulus_reads_nan(self, row):
        # d = 435: a NaN anywhere in D, first or last row included, must survive the max
        factors = phases.polar_decompose(bs.enumerate_basis(3, 28), (1, 2))
        vals = factors.modulus.vals.copy()
        vals[row] = np.nan
        poisoned = dataclasses.replace(factors, modulus=Monomial(factors.modulus.rows, vals))
        assert math.isnan(phases.polar_identity_residual(poisoned))

    @pytest.mark.parametrize("n, lam", SMALL_IRREPS)
    def test_kept_c_and_d_are_the_dense_builders_bit_for_bit(self, n, lam):
        b = bs.enumerate_basis(n, lam)
        cases = [(root, convention, None) for root in ladder_roots(n)
                 for convention in ("plus", "paper-sign", "raw")]
        if (n, lam) == (3, 1):
            cases += [(root, "complementary", 0.7) for root in ((1, 2), (2, 3))]
        for root, convention, angle in cases:
            factors = phases.polar_decompose(b, root, convention, angle)
            c = generator_matrix(b, *root)
            assert np.array_equal(bits(factors.ladder.dense()), bits(c))
            assert np.array_equal(bits(factors.positive), bits(phases.positive_factor(c)))

    def test_the_factors_hold_no_dense_matrix(self):
        # at d = 1326 a dense C or D alone is 26.8 MiB; the three Monomials are O(d)
        basis = bs.enumerate_basis(3, 50)
        tracemalloc.start()
        try:
            factors = phases.polar_decompose(basis, (1, 2))
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        fields = [field.name for field in dataclasses.fields(factors)]
        assert fields == ["monomial", "modulus", "convention", "ladder"]
        assert retained < 2**20, retained


class TestShift:
    def test_half_spin(self):
        assert np.array_equal(phases.su2_shift_E(0.5), np.array([[0, 1], [1, 0]]))

    def test_spin_one_entries(self):
        e = phases.su2_shift_E(1)
        assert e[0, 2] == 1 and e[1, 0] == 1 and e[2, 1] == 1
        assert np.count_nonzero(e) == 3

    @pytest.mark.parametrize("two_j", range(9))
    def test_cyclic_order(self, two_j):
        e = phases.su2_shift_E(two_j / 2.0)
        assert np.array_equal(
            np.linalg.matrix_power(e, two_j + 1), np.eye(two_j + 1)
        )


class TestPhaseHermitian:
    def test_signed_root12_phase_matrix(self):
        phi = phases.phase_hermitian(E12_SIGNED)
        expected = (math.pi / 2) * np.array(
            [[0, -1j, 0], [1j, 0, 0], [0, 0, 0]], dtype=complex
        )
        assert np.max(np.abs(phi - expected)) < 1e-10

    def test_identity(self):
        assert np.max(np.abs(phases.phase_hermitian(np.eye(4, dtype=complex)))) == 0

    def test_spin_one_shift_eigenphases(self):
        phi = phases.phase_hermitian(phases.su2_shift_E(1))
        eigenphases = np.sort(np.linalg.eigvalsh(phi))
        assert np.allclose(
            eigenphases, [-2 * math.pi / 3, 0.0, 2 * math.pi / 3], atol=1e-10
        )

    def test_exponential_round_trip(self):
        e = phases.su2_invariant_completion(bs.enumerate_basis(3, 3), (3, 1), "plus").dense()
        phi = phases.phase_hermitian(e)
        assert np.max(np.abs(phi - phi.conj().T)) < 1e-13
        assert np.max(np.abs(scipy.linalg.expm(1j * phi) - e)) < 1e-10

    @pytest.mark.parametrize("convention", ["plus", "paper-sign"])
    @pytest.mark.parametrize("root", [(1, 2), (2, 3), (1, 3), (2, 1), (3, 2), (3, 1)])
    def test_eigenphases_in_principal_branch(self, root, convention):
        # even strings (plus) and odd strings (paper-sign) give the eigenvalue -1,
        # whose phase is +pi
        e = phases.su2_invariant_completion(bs.enumerate_basis(3, 6), root, convention).dense()
        phi = phases.phase_hermitian(e)
        assert np.linalg.eigvalsh(phi).min() > -math.pi + 1e-9
        assert np.max(np.abs(scipy.linalg.expm(1j * phi) - e)) < 1e-10

    def test_rejects_partial_isometry(self):
        c = generator_matrix(bs.enumerate_basis(3, 1), 1, 2)
        with pytest.raises(ValueError, match="polar completion"):
            phases.phase_hermitian(c)

    def test_rejects_a_monomial_off_the_unit_circle(self):
        with pytest.raises(ValueError, match="polar completion"):
            phases.phase_hermitian(2 * phases.su2_shift_E(1))

    @pytest.mark.parametrize("value", [math.nan, complex(1.0, math.nan), complex(math.nan, 0.0)])
    @pytest.mark.parametrize("where", [slice(None), slice(-1, None)])
    def test_rejects_nan_values(self, value, where):
        e = phases.su2_invariant_completion(bs.enumerate_basis(3, 2), (1, 2))
        vals = e.vals.astype(complex)
        vals[where] = value
        with pytest.raises(ValueError, match="polar completion"):
            phases.phase_hermitian(Monomial(e.rows, vals))
        with pytest.raises(ValueError, match="polar completion"):
            phases.phase_hermitian(Monomial(e.rows, vals).dense())

    def test_a_nan_in_g_exp_is_refused(self, monkeypatch):
        def nan_first(eigenvalues):
            eigenvalues[0] = np.nan
            return eigenvalues

        monkeypatch.setattr(phases, "np", PoisonedNumpy(nan_first))
        with pytest.raises(RuntimeError, match="logarithm"):
            phases.phase_hermitian(phases.su2_shift_E(1))

    @settings(deadline=None, max_examples=150)
    @given(monomial_unitaries())
    # an eigenvalue 2.5e-10 rad from -1, whose readings near -pi and +pi must pair up
    @example(np.exp(2.5e-10j) * np.array([[0, 1], [1, 0]], dtype=complex))
    def test_cycle_logarithm_matches_the_schur_route(self, unitary):
        phi = phases.phase_hermitian(unitary)
        assert np.array_equal(phi, phi.conj().T)
        assert np.max(np.abs(scipy.linalg.expm(1j * phi) - unitary)) < 1e-10
        spectrum = np.linalg.eigvalsh(phi)
        assert -math.pi - 1e-12 < spectrum.min() and spectrum.max() <= math.pi + 1e-12
        if np.all(np.isin(unitary, (-1, 0, 1))):  # cycle products +-1: no -pi at all
            assert spectrum.min() > -math.pi + 1e-9
        reference = np.linalg.eigvalsh(schur_phase(unitary))
        assert circle_gap(spectrum, reference) < 1e-9

    @pytest.mark.parametrize(
        "value", [-1.0, complex(-1.0, -0.0), complex(-(1 - 2**-52), -0.0), complex(-1.0, 0.0)]
    )
    def test_minus_one_reads_plus_pi_whatever_the_sign_of_zero(self, value):
        assert phases.phase_hermitian(np.array([[value]], dtype=complex))[0, 0] == math.pi

    @pytest.mark.parametrize("size", range(1, 30))
    @pytest.mark.parametrize("wrap", [1, -1])
    def test_signed_cycle_phases_are_exact_multiples_of_pi(self, size, wrap):
        # The eigenphases are pi q / size for the integers q in (-size, size] of
        # the wrap's parity, so -1 (q = size) reads +pi.  Computed as
        # (arg p + 2 pi m) / size, that phase lands just above pi for size 13 with
        # wrap -1 and size 26 with wrap 1, and folding it would give -pi.
        e = np.roll(np.eye(size, dtype=complex), 1, axis=0)
        e[0, -1] = wrap
        q = np.arange(wrap < 0, 2 * size, 2)
        q = np.where(q > size, q - 2 * size, q)
        spectrum = np.sort(np.linalg.eigvalsh(phases.phase_hermitian(e)))
        assert np.max(np.abs(spectrum - np.sort(math.pi * q / size))) < 1e-12

    def test_non_monomial_unitary_goes_through_schur(self):
        # refused by phase_hermitian; the Schur oracle still takes its logarithm
        rng = np.random.default_rng(3)
        q, _ = np.linalg.qr(rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))
        with pytest.raises(ValueError, match="polar completion"):
            phases.phase_hermitian(q)
        assert np.max(np.abs(scipy.linalg.expm(1j * schur_phase(q)) - q)) < 1e-10

    def test_a_scaled_g_exp_is_refused(self, monkeypatch):
        monkeypatch.setattr(phases, "np", PoisonedNumpy(lambda e: e * (1 + 1e-9)))
        with pytest.raises(RuntimeError, match="failed to reproduce"):
            phases.phase_hermitian(phases.su2_shift_E(2))

    @pytest.mark.parametrize("planted, refused", [(2e-10, True), (0.5e-10, False)])
    def test_a_defect_off_the_cycle_is_bounded(self, monkeypatch, planted, refused):
        # a constant added to every exp(i theta_m) lands on lag 0 alone, the diagonal
        # of exp(i phi): the cycle's own entries (lags 1 and 1 - L) do not see it
        monkeypatch.setattr(phases, "np", PoisonedNumpy(lambda e: e + planted))
        vals = phases.su2_invariant_completion(bs.enumerate_basis(2, 4), (2, 1)).vals
        assert (rebuild_defect(vals.astype(complex), lambda e: e + planted) > 1e-10) == refused
        if refused:
            with pytest.raises(RuntimeError, match="failed to reproduce"):
                phases.phase_hermitian(phases.su2_shift_E(2))
        else:
            phases.phase_hermitian(phases.su2_shift_E(2))


class PoisonedNumpy:
    """numpy, with poison applied to the exp(i theta) that `_cycle_phase` reads g_exp from.

    That is its one numpy.exp call without out=; the wave table is exponentiated in place.
    """

    def __init__(self, poison):
        self.poison = poison

    def __getattr__(self, name):
        return getattr(np, name)

    def exp(self, x, **kwargs):
        return np.exp(x, **kwargs) if kwargs else self.poison(np.exp(x))


def lag_cycle_phase(vals, poison=None):
    """Oracle: the cycle blocks from the whole (2L - 1) x L wave table and a lag table.

    poison, if given, applies to exp(i theta) before the exp(i phi) block is rebuilt.
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
    eigenvalues = np.exp(1j * theta)
    rebuilt = twist * (waves @ (eigenvalues if poison is None else poison(eigenvalues)))[lag]
    return 0.5 * (phi + phi.conj().T), rebuilt


def rebuild_defect(vals, poison=None):
    """Oracle: largest entry modulus of the rebuilt L x L exp(i phi) less the cycle."""
    _, rebuilt = lag_cycle_phase(vals, poison)
    t = np.arange(len(vals))
    rebuilt[(t + 1) % len(vals), t] -= vals
    return np.max(np.abs(rebuilt))


def oracle_cycles(size):
    """Signed cycles with product p = +1 and p = -1, then unit values with a generic p."""
    rng = np.random.default_rng(size)
    signs = rng.choice([-1.0, 1.0], size)
    cases = []
    for p in (1.0, -1.0):
        vals = signs.astype(complex)
        vals[-1] = p * np.prod(signs[:-1])
        cases.append(vals)
    cases.append(np.exp(1j * rng.uniform(-np.pi, np.pi, size)))
    return cases


class TestCyclePhaseOracle:
    # numpy multiplies a large temporary in place, which changes the operand order
    # of phi's product from L = 128 on (256 KiB blocks): 128 and 200 pin that side
    @pytest.mark.parametrize("size", [*range(1, 65), 128, 200])
    def test_blocks_are_bit_identical(self, size):
        for vals in oracle_cycles(size):
            got, (want, _) = phases._cycle_phase(vals), lag_cycle_phase(vals)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), vals

    @pytest.mark.parametrize("size", range(1, 65))
    def test_the_lag_check_refuses_what_the_rebuild_refuses(self, size, monkeypatch):
        # The O(L) check may never pass a cycle whose rebuilt L x L block misses it by
        # more than 1e-10; on these cases the two agree both ways.  Planted: modulus
        # drift, an eigenvalue exp(i theta_m) turned by delta, and a constant on every
        # eigenvalue, which lands on lag 0 alone (off the cycle for L > 1).
        rng = np.random.default_rng(1000 + size)
        cases = [(vals, None) for vals in oracle_cycles(size)]
        for drift in (0.49e-10, 1e-11):
            cases += [(vals * (1 + drift), None) for vals in oracle_cycles(size)]
        for delta in (1e-11, 1e-10, 3e-10, 1e-9, 1e-6, 1.0):
            m = int(rng.integers(size))

            def turn(eigenvalues, m=m, delta=delta):
                eigenvalues[m] *= np.exp(1j * delta)
                return eigenvalues

            cases += [(vals, turn) for vals in oracle_cycles(size)]
        for c in (0.5e-10, 2e-10):
            cases += [(vals, lambda e, c=c: e + c) for vals in oracle_cycles(size)]
        for vals, poison in cases:
            want = not rebuild_defect(vals, poison) <= 1e-10
            with monkeypatch.context() as patch:
                if poison is not None:
                    patch.setattr(phases, "np", PoisonedNumpy(poison))
                try:
                    phases._cycle_phase(vals)
                    got = False
                except RuntimeError:
                    got = True
            assert got == want, (vals, poison)

    @pytest.mark.parametrize("size", [5, 30])
    def test_modulus_drift_within_the_unitarity_tolerance_is_refused(self, size):
        # |v|^2 - 1 = 0.98e-10 passes phase_hermitian's unitarity gate, but the cycle
        # product drifts by size times that and exp(i phi), unit by construction, misses it
        for vals in oracle_cycles(size):
            drifted = vals * (1 + 0.49e-10)
            assert rebuild_defect(drifted) > 1e-10
            with pytest.raises(RuntimeError, match="failed to reproduce"):
                phases._cycle_phase(drifted)


class TestGroupCommutator:
    @settings(deadline=None, max_examples=200)
    @given(completion_pairs())
    def test_completions_match_the_dense_product(self, pair):
        n, lam, root_a, root_b, convention = pair
        b = bs.enumerate_basis(n, lam)
        ea = phases.su2_invariant_completion(b, root_a, convention)
        eb = phases.su2_invariant_completion(b, root_b, convention)
        u = phases.group_commutator(ea, eb)
        assert u.shape == (len(b), len(b))
        want_u, _ = dense_commutator(ea.dense(), eb.dense())
        assert np.array_equal(u.dense(), want_u)

    @settings(deadline=None)
    @given(monomial_pairs())
    def test_unit_modulus_monomials_match_the_dense_product(self, pair):
        u = phases.group_commutator(*map(Monomial.from_dense, pair))
        want_u, _ = dense_commutator(*pair)
        assert np.max(np.abs(u.dense() - want_u)) <= 1e-15

    @settings(deadline=None)
    @given(
        st.integers(2, 12).flatmap(monomials),
        st.sampled_from(
            ["zero column", "two in a column", "moved in its row", "moved in its column"]
        ),
        st.data(),
    )
    def test_rejects_a_matrix_that_is_not_monomial(self, mat, defect, data):
        d = len(mat)
        col = data.draw(st.integers(0, d - 1))
        row = int(np.flatnonzero(mat[:, col])[0])
        value = mat[row, col]
        if defect == "zero column":
            mat[row, col] = 0
        elif defect == "two in a column":
            mat[(row + 1) % d, col] = 1
        elif defect == "moved in its row":  # every row keeps one nonzero
            mat[row, col], mat[row, (col + 1) % d] = 0, value
        else:  # every column keeps one nonzero
            mat[row, col], mat[(row + 1) % d, col] = 0, value
        with pytest.raises(ValueError, match="monomial"):
            Monomial.from_dense(mat)

    @settings(deadline=None, max_examples=20)
    @given(st.integers(2, 12), st.integers(0, 2**32 - 1))
    def test_rejects_a_dense_unitary(self, d, seed):
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
        assert dense_unitarity_residual(q) < 1e-12
        with pytest.raises(ValueError, match="monomial"):
            Monomial.from_dense(q)

    @settings(deadline=None, max_examples=50)
    @given(completion_pairs())
    def test_dense_input_gives_the_dense_pair(self, pair):
        n, lam, root_a, root_b, convention = pair
        b = bs.enumerate_basis(n, lam)
        ea = phases.su2_invariant_completion(b, root_a, convention).dense()
        eb = phases.su2_invariant_completion(b, root_b, convention).dense()
        u, m = phases.group_commutator(ea, eb)
        want_u, want_m = dense_commutator(ea, eb)
        assert np.array_equal(u, want_u)
        assert np.array_equal(m, want_m)
        with pytest.raises(ValueError, match="monomial"):
            phases.group_commutator(np.zeros_like(ea), eb)

    def test_self_commutator_vanishes(self):
        e = Monomial.from_dense(phases.su2_shift_E(2))
        u = phases.group_commutator(e, e)
        assert np.array_equal(u.dense(), np.eye(5))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            phases.group_commutator(Monomial.from_dense(np.eye(2)), Monomial.from_dense(np.eye(3)))

    def test_fundamental_three_cycle(self):
        report = phases.noncommutativity_norm(3, 1)
        assert report.raw_norm == pytest.approx(6.0)
        assert report.fixed_point_count == 0

    def test_lambda2_fixed_point(self):
        b = bs.enumerate_basis(3, 2)
        ea = phases.su2_invariant_completion(b, (1, 2), "plus")
        eb = phases.su2_invariant_completion(b, (3, 1), "plus")
        u = phases.group_commutator(ea, eb).dense()
        m = u - np.eye(6)
        raw = np.real(np.trace(m.conj().T @ m))
        assert raw == pytest.approx(10.0)
        # only |101> survives the commutator unchanged
        fixed = [
            k
            for k in range(6)
            if np.max(np.abs(u[:, k] - np.eye(6)[:, k])) < 1e-12
        ]
        assert fixed == [oracles.positions(b)[(1, 0, 1)]]


class TestNorms:
    @settings(deadline=None, max_examples=100)
    @given(completion_pairs())
    def test_norm_and_fixed_points_match_the_dense_route(self, pair):
        n, lam, root_a, root_b, convention = pair
        b = bs.enumerate_basis(n, lam)
        _, m = dense_commutator(
            phases.su2_invariant_completion(b, root_a, convention).dense(),
            phases.su2_invariant_completion(b, root_b, convention).dense(),
        )
        report = phases.noncommutativity_norm(n, lam, root_a, root_b, convention)
        assert report.raw_norm == float(np.vdot(m, m).real)
        assert report.fixed_point_count == int(
            np.count_nonzero(np.max(np.abs(m), axis=0) < 1e-9)
        )

    @settings(deadline=None)
    @given(st.integers(1, 12).flatmap(monomials), st.data())
    def test_defect_matches_the_dense_defect(self, mat, data):
        # fixed columns with value -1 or a complex phase count in the norm, not as fixed points
        d = len(mat)
        signs = data.draw(st.lists(st.sampled_from([1.0, -1.0]), min_size=d, max_size=d))
        for u in (mat, (mat != 0) * np.array(signs)):
            m = u - np.eye(d)
            (raw,), (fixed,) = phases._defect(Monomial.from_dense(u), [0])
            assert raw == pytest.approx(float(np.vdot(m, m).real), abs=1e-12)
            assert fixed == int(np.count_nonzero(np.max(np.abs(m), axis=0) == 0))

    def test_a_fixed_column_with_sign_minus_one_is_not_a_fixed_point(self):
        u = Monomial(np.array([0, 2, 1]), np.array([-1.0, 1.0, 1.0]))
        assert phases._defect(u, [0]) == ([8.0], [0])
        one_flipped = Monomial(np.arange(3), np.array([1.0, -1.0, 1.0]))
        assert phases._defect(one_flipped, [0]) == ([4.0], [2])
        assert phases._defect(u, [0, 1]) == ([4.0, 4.0], [0, 0])

    @pytest.mark.parametrize("lam", range(1, 11))
    def test_su3_matches_formula(self, lam):
        report = phases.noncommutativity_norm(3, lam)
        assert abs(report.normalized_norm - float(report.formula_value)) < 1e-9

    @pytest.mark.parametrize("n,lam", [(3, 4), (4, 3)])
    def test_permutation_commutator_oracle(self, n, lam):
        # independent pure-python permutation route for the fixed points
        b = bs.enumerate_basis(n, lam)
        pa, _ = permutation_of(b, (1, 2))
        pb, _ = permutation_of(b, (3, 1))
        inv_a = {v: k for k, v in pa.items()}
        inv_b = {v: k for k, v in pb.items()}
        fixed = sum(1 for k in range(len(b)) if pa[pb[inv_a[inv_b[k]]]] == k)
        report = phases.noncommutativity_norm(n, lam)
        assert report.fixed_point_count == fixed
        assert report.raw_norm == pytest.approx(2.0 * (len(b) - fixed))

    def test_norm_trace_identity(self):
        for lam in range(1, 7):
            b = bs.enumerate_basis(3, lam)
            ea = phases.su2_invariant_completion(b, (1, 2), "paper-sign")
            eb = phases.su2_invariant_completion(b, (3, 1), "paper-sign")
            u = phases.group_commutator(ea, eb).dense()
            m = u - np.eye(len(b))
            raw = np.real(np.trace(m.conj().T @ m))
            assert raw == pytest.approx(
                2.0 * (len(b) - np.real(np.trace(u))), abs=1e-10
            )

    def test_su4_fundamental(self):
        report = phases.noncommutativity_norm(4, 1)
        assert report.raw_norm == pytest.approx(6.0)
        assert report.normalized_norm == pytest.approx(1.5)
        assert report.formula_value == Fraction(9, 4)  # reported, not asserted equal

    def test_formula_values(self):
        assert phases.formula_su3(1) == Fraction(2)
        assert phases.formula_su3(2) == Fraction(5, 3)
        assert phases.formula_su4(1) == Fraction(9, 4)

    def test_formula_only_for_canonical_pair(self):
        report = phases.noncommutativity_norm(3, 2, (1, 2), (2, 3))
        assert report.formula_value is None


class TestExactRawNorm:
    @staticmethod
    def three_routes(n, lam, root_a, root_b, convention):
        """The array core, the dense oracle and the closed form."""
        b = bs.enumerate_basis(n, lam)
        _, m = dense_commutator(
            phases.su2_invariant_completion(b, root_a, convention).dense(),
            phases.su2_invariant_completion(b, root_b, convention).dense(),
        )
        report = phases.noncommutativity_norm(n, lam, root_a, root_b, convention)
        exact = phases.exact_raw_norm(n, lam, root_a, root_b)
        return report.raw_norm, float(np.vdot(m, m).real), exact

    @settings(deadline=None, max_examples=300)
    @given(completion_pairs())
    def test_array_dense_and_closed_form_agree(self, pair):
        array, dense, exact = self.three_routes(*pair)
        assert isinstance(exact, int)
        assert array == dense == exact

    @pytest.mark.parametrize("n", [3, 4])
    def test_every_ordered_root_pair(self, n):
        roots = ladder_roots(n)
        for lam in range(1, 5):
            for root_a in roots:
                for root_b in roots:
                    for convention in ("plus", "paper-sign"):
                        array, dense, exact = self.three_routes(
                            n, lam, root_a, root_b, convention
                        )
                        assert array == dense == exact
                        shared = len(set(root_a) & set(root_b))
                        assert (exact > 0) == (shared == 1)

    @pytest.mark.parametrize("lam", range(0, 40, 7))
    def test_su3_and_su4_closed_forms(self, lam):
        assert phases.exact_raw_norm(3, lam, (1, 2), (3, 1)) == (2 * (2 * lam + 1) if lam else 0)
        assert phases.exact_raw_norm(4, lam, (1, 2), (3, 1)) == 2 * lam * (lam + 2)

    @pytest.mark.parametrize("n", range(2, 7))
    @pytest.mark.parametrize("convention", ["plus", "paper-sign"])
    def test_lambda_zero_is_one_fixed_point(self, n, convention):
        root_b = (3, 1) if n > 2 else (2, 1)
        report = phases.noncommutativity_norm(n, 0, (1, 2), root_b, convention)
        assert (report.dimension, report.raw_norm, report.fixed_point_count) == (1, 0.0, 1)
        assert phases.exact_raw_norm(n, 0, (1, 2), root_b) == 0
        if n == 3:
            assert phases.formula_su3(0) == 2  # the quoted formula, not the norm

    @pytest.mark.parametrize(
        "args", [(1, 2, (1, 2), (2, 1)), (3, -1, (1, 2), (3, 1)), (3, 2, (1, 4), (3, 1))]
    )
    def test_rejects_a_bad_irrep_or_root(self, args):
        with pytest.raises(ValueError):
            phases.exact_raw_norm(*args)


class TestMonomial:
    @settings(deadline=None)
    @given(st.integers(1, 12).flatmap(monomials))
    def test_dense_round_trip(self, mat):
        e = Monomial.from_dense(mat)
        assert e.shape == mat.shape
        assert np.array_equal(e.dense(), mat)

    @pytest.mark.parametrize("n, lam", SMALL_IRREPS)
    def test_completions_are_the_oracle_permutation(self, n, lam):
        b = bs.enumerate_basis(n, lam)
        for root in ladder_roots(n):
            for convention in ("plus", "paper-sign"):
                e = phases.su2_invariant_completion(b, root, convention)
                perm, sign = permutation_of(b, root, convention)
                assert e.rows.tolist() == [perm[k] for k in range(len(b))]
                assert e.vals.tolist() == [sign[k] for k in range(len(b))]

    def test_rejects_a_matrix_that_is_not_square(self):
        with pytest.raises(ValueError, match="monomial"):
            Monomial.from_dense(np.eye(3)[:2])
        with pytest.raises(ValueError, match="monomial"):
            Monomial.from_dense(np.ones(3))


def dense_d_identity_residual(lam):
    """Oracle: the squared D factors as d x d products against the dense Cartans."""
    basis = bs.enumerate_basis(3, lam)
    h1, h2 = oracles.cartan_matrix(basis, 1), oracles.cartan_matrix(basis, 2)

    def dsq(i, j):
        d = phases.positive_factor(generator_matrix(basis, i, j))
        return d @ d

    residual = 0.0
    for (i, j), target in (((1, 2), h1), ((2, 3), h2), ((1, 3), h1 + h2)):
        defect = dsq(j, i) - dsq(i, j) - target
        residual = max(residual, float(np.max(np.abs(defect))))
    return residual


class TestDIdentities:
    @pytest.mark.parametrize("lam", range(9))
    def test_squared_differences_give_cartans(self, lam):
        assert phases.d_identity_residual(lam) < 1e-12

    @pytest.mark.parametrize("lam", range(13))
    def test_diagonals_give_the_dense_value(self, lam):
        got = np.float64(phases.d_identity_residual(lam))
        assert got.view(np.uint64) == np.float64(dense_d_identity_residual(lam)).view(np.uint64)

    def test_no_cartan_matrix_or_product_is_built(self, monkeypatch):
        class NoProduct(np.ndarray):
            def __matmul__(self, other):
                raise AssertionError("d_identity_residual formed a d x d product")

        def refuse(*args):
            raise AssertionError("d_identity_residual built a Cartan")

        def dense_ladder(*args):
            raise AssertionError("d_identity_residual built a dense ladder")

        def scatter(self, start=0, stop=None, original=Monomial.dense):
            # at lambda = 6 no ladder is diagonal: a diagonal scatter is a Cartan's
            if np.array_equal(self.rows, np.arange(len(self.rows))):
                raise AssertionError("d_identity_residual scattered a dense Cartan")
            return original(self, start, stop)

        positive_factor = phases.positive_factor
        monkeypatch.setattr(phases, "positive_factor", lambda c: positive_factor(c).view(NoProduct))
        monkeypatch.setattr(generators.GeneratorSet, "cartan", refuse)
        monkeypatch.setattr(Monomial, "dense", scatter)
        # D's diagonal is the ladder coefficient, read in O(d)
        monkeypatch.setattr(phases, "generator_matrix", dense_ladder)
        assert phases.d_identity_residual(6) < 1e-12


@st.composite
def range_pairs(draw):
    """(n, lams, root_a, root_b, convention): a range of consecutive irreps, lambda = 0
    included, and two roots sharing 0, 1 or 2 modes."""
    n = draw(st.integers(2, 6))
    hi = draw(st.integers(0, LAM_MAX[n]))
    lams = range(draw(st.integers(0, hi)), hi + 1)
    roots = ladder_roots(n)
    root_a = draw(st.sampled_from(roots))
    shared = draw(st.sampled_from([k for k in (0, 1, 2) if k >= 4 - n]))
    root_b = draw(st.sampled_from([r for r in roots if len(set(r) & set(root_a)) == shared]))
    return n, lams, root_a, root_b, draw(st.sampled_from(["plus", "paper-sign"]))


class TestRangeNorms:
    @settings(deadline=None, max_examples=200)
    @given(range_pairs())
    def test_a_range_gives_the_single_lambda_reports(self, pair):
        n, lams, root_a, root_b, convention = pair
        reports = phases.noncommutativity_norm(n, lams, root_a, root_b, convention)
        assert [r.lam for r in reports] == list(lams)
        for report in reports:
            single = phases.noncommutativity_norm(n, report.lam, root_a, root_b, convention)
            for field in dataclasses.fields(report):
                got, want = getattr(report, field.name), getattr(single, field.name)
                assert type(got) is type(want) and got == want, field.name
            assert oracles.same_bits(report.raw_norm, single.raw_norm)
            assert oracles.same_bits(report.normalized_norm, single.normalized_norm)
            assert report.raw_norm == phases.exact_raw_norm(n, report.lam, root_a, root_b)

    @settings(deadline=None, max_examples=200)
    @given(st.integers(2, 6), st.integers(0, 60), st.integers(0, 60))
    def test_runs_cover_the_range_once_within_the_largest_irrep(self, n, lam_min, span):
        # the cap is the largest irrep, or _RUN_STATES where that irrep is smaller
        lam_max = lam_min + span
        runs = list(phases._sweep_runs(n, lam_min, lam_max))[::-1]
        assert [lam for run in runs for lam in run] == list(range(lam_min, lam_max + 1))
        cap = max(bs.dimension(n, lam_max), phases._RUN_STATES)
        assert all(run.step == 1 and len(run) > 0 for run in runs)
        states = [sum(bs.dimension(n, lam) for lam in run) for run in runs]
        assert max(states) <= cap
        # maximal: every run but the lowest stops where the lambda below would pass the cap
        for run, held in zip(runs[1:], states[1:]):
            assert held + bs.dimension(n, run[0] - 1) > cap, run

    def test_runs_of_the_benchmark_tables(self):
        def ends(n, lam_min, lam_max):
            return [(run[0], run[-1]) for run in phases._sweep_runs(n, lam_min, lam_max)][::-1]

        assert phases._RUN_STATES == 2048
        assert ends(3, 1, 30) == [(1, 20), (21, 26), (27, 30)]
        assert ends(4, 2, 12) == [(2, 12)]
        # far above the floor the largest irrep sets the cap, as without it
        assert len(ends(3, 1, 400)) == 173

    def test_runs_refuse_what_the_sweep_refuses(self):
        for args in [(3, 5, 4), (3, -1, 4), (3, -3, -1), (1, 0, 4)]:
            with pytest.raises(ValueError):
                next(phases._sweep_runs(*args))

    def test_threads_map_runs_and_keep_the_order(self):
        assert len(list(phases._sweep_runs(3, 1, 60))) > 3
        serial = phases.sweep(3, 1, 60, threads=1)
        assert [r.lam for r in serial] == list(range(1, 61))
        assert phases.sweep(3, 1, 60, threads=3) == serial
        assert serial == [phases.noncommutativity_norm(3, lam) for lam in range(1, 61)]


class TestSweepAndFit:
    def test_sweep_ordering_and_thread_determinism(self):
        seq = phases.sweep(3, 1, 6)
        par = phases.sweep(3, 1, 6, threads=4)
        assert [r.lam for r in seq] == list(range(1, 7))
        assert seq == par

    def test_single_thread_opens_no_pool(self, monkeypatch):
        pooled = phases.sweep(3, 1, 6, threads=4)

        def no_pool(*args, **kwargs):
            raise AssertionError("threads=1 opened a pool")

        monkeypatch.setattr(phases, "ThreadPoolExecutor", no_pool)
        assert phases.sweep(3, 1, 6, threads=1) == pooled

    def test_sweep_rejects_empty_range(self):
        with pytest.raises(ValueError):
            phases.sweep(3, 5, 4)

    def test_fit_exact_power_law(self):
        points = [(lam, 7.0 / lam) for lam in range(2, 12)]
        assert phases.decay_fit(points) == pytest.approx(-1.0, abs=1e-12)

    def test_fit_constant(self):
        points = [(lam, 3.0) for lam in range(2, 8)]
        assert phases.decay_fit(points) == pytest.approx(0.0, abs=1e-12)

    def test_fit_needs_enough_points(self):
        with pytest.raises(ValueError):
            phases.decay_fit([(2, 1.0), (3, 0.5), (4, 0.3)])
