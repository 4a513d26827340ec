import decimal
import math

import numpy as np
import pytest

from sunphases import basis as bs
from sunphases import coherent, phases, verify
from sunphases.basis import weight_of
from sunphases.coherent import _occupation_coefficient
from sunphases.generators import _shift, build_generators, su2_matrices


def _coherent_ladder(basis, i, j):
    """Oracle: C_ij with the bare occupation n_j as coefficient, scattered."""
    return _shift(basis, i, j, _occupation_coefficient).dense()


def dense_hermitize_check(j):
    """Oracle: K^-1 Gamma K by two dense products with the diagonal K."""
    gamma = coherent.gamma_su2(j)
    std = su2_matrices(j)
    kmat = coherent.intertwiner(j)
    kinv = np.diag(1.0 / np.diag(kmat))
    lowered = kinv @ gamma.ladders[2, 1] @ kmat
    raised = kinv @ gamma.ladders[1, 2] @ kmat
    return max(
        float(np.max(np.abs(lowered - std.ladders[2, 1]))),
        float(np.max(np.abs(raised - std.ladders[2, 1].conj().T))),
    )


def loop_recursion_check(j):
    """Oracle: the recursion one entry at a time on the unscaled S = K^2."""
    s = np.real(np.diag(coherent.intertwiner(j))) ** 2
    worst = 0.0
    for p in range(1, len(s)):
        m = j - p
        worst = max(worst, abs(s[p - 1] * (j + m + 1) - s[p] * (j - m)) / s[p])
    return worst


def product_phase_part(gamma):
    """Oracle: column weights from the diagonal of Gamma(e_-)^dag Gamma(e_-)."""
    e_minus = gamma.ladders[2, 1]
    dim = e_minus.shape[0]
    weights = np.sqrt(np.real(np.diag(e_minus.conj().T @ e_minus)))
    mat = np.zeros((dim, dim), dtype=complex)
    for p in range(dim):
        if weights[p] > 0:
            mat[:, p] = e_minus[:, p] / weights[p]
    for p in range(dim):
        if weights[p] == 0:
            mat[(p + 1) % dim, p] = 1.0
    return mat


def dense_commutant_residual(two_j_max=30):
    """Oracle: verify's intertwiner commutant check on the dense h, e_- e_+ and e_+ e_-."""
    worst = 0.0
    for two_j in range(0, two_j_max + 1):
        j = two_j / 2.0
        g = coherent.gamma_su2(j)
        h, e_plus, e_minus = g.cartans[0] / 2, g.ladders[1, 2], g.ladders[2, 1]
        k = coherent._intertwiner_diagonal(j)
        for other in (h, e_minus @ e_plus, e_plus @ e_minus):
            scale = max(1.0, float(np.max(k)) * max(1.0, float(np.max(np.abs(other)))))
            worst = max(worst, float(np.max(np.abs((k[:, None] - k) * other))) / scale)
    return worst


class TestAgainstTheDenseOracles:
    def test_commutant_check_is_bit_identical(self):
        [check] = [c for c in verify.suite_gamma() if c.name.startswith("intertwiner commutants")]
        got, want = np.float64(check.residual), np.float64(dense_commutant_residual())
        assert got.view(np.uint64) == want.view(np.uint64)

    def test_gamma_suite_builds_no_dense_view(self, monkeypatch):
        built = []
        for name in ("gamma_su2", "su2_matrices"):

            def spy(j, build=getattr(coherent, name)):
                built.append(build(j))
                return built[-1]

            monkeypatch.setattr(coherent, name, spy)
        assert all(check.passed for check in verify.suite_gamma())
        assert len(built) > 31
        for spin in built:
            assert not {"ladders", "cartans"} & set(spin.__dict__)

    def test_hermitize_check_is_bit_identical(self):
        for two_j in range(0, 201):
            got = np.float64(coherent.hermitize_check(two_j / 2.0))
            want = np.float64(dense_hermitize_check(two_j / 2.0))
            assert got.view(np.uint64) == want.view(np.uint64), two_j

    def test_recursion_check_is_bit_identical_while_unscaled_is_finite(self):
        # the unscaled products S (j + m + 1) stay finite up to 2j = 1020
        for two_j in [*range(0, 1021, 13), 1020]:
            got = np.float64(coherent.s_recursion_check(two_j / 2.0))
            want = np.float64(loop_recursion_check(two_j / 2.0))
            assert got.view(np.uint64) == want.view(np.uint64), two_j

    @pytest.mark.filterwarnings("error")
    def test_recursion_check_covers_every_entry_past_the_square_overflow(self):
        # unscaled, the products overflow from 2j = 1021 and the inf - inf
        # entries drop out of the max; scaled, every entry counts
        assert 0 < coherent.s_recursion_check(2053 / 2) < 1e-8

    def test_phase_part_is_bit_identical(self):
        for two_j in range(0, 201):
            g = coherent.gamma_su2(two_j / 2.0)
            got, want = coherent.gamma_phase_part(g).dense(), product_phase_part(g)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), two_j

    def test_no_state_tuples_are_built(self):
        # the ladders, the polar factors and the coherent su(3) layer read the
        # occupation array only
        for n, lam in ((2, 6), (3, 4), (4, 3)):
            basis = bs.enumerate_basis(n, lam)
            build_generators(basis)
            for root in ((1, 2), (2, 1)):
                phases.polar_decompose(basis, root)
            assert "states" not in basis.__dict__
        assert "states" not in coherent.gamma_su3(4).basis.__dict__


class TestGammaSu2:
    def test_spin_one_action(self):
        g = coherent.gamma_su2(1)
        # basis order m = 1, 0, -1
        vec = np.zeros(3)
        vec[1] = 1.0  # |1,0>
        assert np.array_equal(np.real(g.ladders[1, 2] @ vec), [1, 0, 0])
        top = np.zeros(3)
        top[0] = 1.0
        assert np.all(g.ladders[1, 2] @ top == 0)

    def test_spin_one_commutator(self):
        g = coherent.gamma_su2(1)
        e_plus, e_minus = g.ladders[1, 2], g.ladders[2, 1]
        comm = e_plus @ e_minus - e_minus @ e_plus
        assert np.array_equal(np.real(comm), 2 * np.diag([1, 0, -1]))

    @pytest.mark.parametrize("two_j", range(0, 31))
    def test_integer_commutation_relations(self, two_j):
        g = coherent.gamma_su2(two_j / 2.0)
        h, e_plus, e_minus = g.cartans[0] / 2, g.ladders[1, 2], g.ladders[2, 1]
        assert np.array_equal(
            e_plus @ e_minus - e_minus @ e_plus, 2 * h
        )
        assert np.array_equal(h @ e_plus - e_plus @ h, e_plus)
        assert np.array_equal(h @ e_minus - e_minus @ h, -e_minus)

    def test_rejects_bad_spin(self):
        with pytest.raises(ValueError):
            coherent.gamma_su2(0.7)

    @pytest.mark.parametrize("spin", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_spin(self, spin):
        with pytest.raises(ValueError, match="finite"):
            coherent.gamma_su2(spin)


class TestWitness:
    @pytest.mark.parametrize("two_j", range(0, 21))
    def test_witness_value(self, two_j):
        # oracle: entries differ by |(j-m) - (j+m+1)| = |2m+1| on the shared support
        j = two_j / 2.0
        expected = max(
            (abs(2 * (j - p) + 1) for p in range(1, two_j + 1)), default=0.0
        )
        g = coherent.gamma_su2(j)
        assert coherent.nonhermiticity_witness(g) == pytest.approx(expected)

    def test_nonzero_beyond_half_spin(self):
        for two_j in range(2, 12):
            g = coherent.gamma_su2(two_j / 2.0)
            assert coherent.nonhermiticity_witness(g) > 0

    def test_trivial_cases(self):
        assert coherent.nonhermiticity_witness(coherent.gamma_su2(0)) == 0


class TestIntertwiner:
    def test_spin_one(self):
        k = np.real(np.diag(coherent.intertwiner(1)))
        assert np.allclose(k, [1, math.sqrt(2), 1])

    def test_half_spin(self):
        assert np.allclose(np.real(np.diag(coherent.intertwiner(0.5))), [1, 1])

    def test_spin_two_middle_entry(self):
        k = np.real(np.diag(coherent.intertwiner(2)))
        assert k[2] == pytest.approx(math.sqrt(6))

    def test_symmetric_under_reflection(self):
        k = np.real(np.diag(coherent.intertwiner(7.5)))
        assert np.allclose(k, k[::-1])

    def test_large_spin_no_overflow(self):
        k = np.real(np.diag(coherent.intertwiner(50)))
        assert np.all(np.isfinite(k))
        # spot check against the exact binomial
        assert k[50] == pytest.approx(math.sqrt(math.comb(100, 50)), rel=1e-10)

    def test_largest_finite_spin(self):
        # 2j = 2053 is the last spin whose middle entry fits a float; 2054 overflows
        k = coherent._intertwiner_diagonal(2053 / 2)
        assert k.shape == (2054,) and np.all(np.isfinite(k))
        with pytest.raises(OverflowError):
            math.exp(0.5 * (math.lgamma(2055) - 2 * math.lgamma(1028)))
        with pytest.raises(ValueError, match="overflows"):
            coherent._intertwiner_diagonal(1027)

    @pytest.mark.parametrize("two_j", range(61))
    def test_moderate_spins_are_the_rounded_binomial_roots_bit_for_bit(self, two_j):
        want = np.sqrt([float(math.comb(two_j, p)) for p in range(two_j + 1)])
        got = coherent._intertwiner_diagonal(two_j / 2)
        assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()

    @pytest.mark.parametrize("two_j", [61, 62, 200, 1001, 2052, 2053])
    def test_every_entry_is_within_one_ulp_of_the_exact_root(self, two_j):
        # a 50-digit reference: far finer than the half ulp a float carries
        context = decimal.Context(prec=50)
        got = coherent._intertwiner_diagonal(two_j / 2)
        for p in range(two_j + 1):
            exact = context.sqrt(decimal.Decimal(math.comb(two_j, p)))
            error = abs(decimal.Decimal(got[p]) - exact)
            assert error <= decimal.Decimal(math.ulp(float(exact))), (two_j, p)


class TestHermitization:
    @pytest.mark.parametrize("two_j", range(0, 31))
    def test_hermitize(self, two_j):
        assert coherent.hermitize_check(two_j / 2.0) < 1e-9

    def test_spin_one_lowering_entry(self):
        g = coherent.gamma_su2(1)
        k = coherent.intertwiner(1)
        conjugated = np.diag(1 / np.diag(k)) @ g.ladders[2, 1] @ k
        # |1,1> (index 0) goes to sqrt(2) |1,0>
        assert conjugated[1, 0] == pytest.approx(math.sqrt(2))

    @pytest.mark.parametrize("two_j", range(1, 61))
    def test_recursion(self, two_j):
        assert coherent.s_recursion_check(two_j / 2.0) < 1e-12

    def test_spectra_agree(self):
        for two_j in range(1, 21):
            j = two_j / 2.0
            g = coherent.gamma_su2(j)
            std = su2_matrices(j)
            a = np.sort(np.linalg.eigvals(g.ladders[1, 2] @ g.ladders[2, 1]).real)
            b = np.sort(np.linalg.eigvals(std.ladders[1, 2] @ std.ladders[2, 1]).real)
            assert np.allclose(a, b, atol=1e-9)


class TestPhasePart:
    @pytest.mark.parametrize("two_j", range(0, 21))
    def test_equals_hermitian_shift(self, two_j):
        j = two_j / 2.0
        e = coherent.gamma_phase_part(coherent.gamma_su2(j)).dense()
        assert np.array_equal(e, phases.su2_shift_E(j))

    def test_half_spin(self):
        e = coherent.gamma_phase_part(coherent.gamma_su2(0.5)).dense()
        assert np.array_equal(e, np.array([[0, 1], [1, 0]]))


class TestGammaSu3:
    def test_h1_fundamental(self):
        g = coherent.gamma_su3(1)
        assert np.array_equal(np.real(np.diag(g.cartans[0])), [1, -1, 0])

    def test_displayed_coefficients_match_occupations(self):
        # the differential-operator coefficients reduce to mode occupations
        for lam in range(1, 5):
            g = coherent.gamma_su3(lam)
            for root, mode in [((1, 2), 2), ((2, 3), 3)]:
                mat = g.ladders[root]
                for col, state in enumerate(g.basis.states):
                    coeff = coherent.displayed_coefficient(
                        lam, root, weight_of(state)
                    )
                    assert coeff == pytest.approx(state[mode - 1])
                    if state[mode - 1] > 0:
                        rows = np.nonzero(np.abs(mat[:, col]) > 0)[0]
                        assert len(rows) == 1
                        assert mat[rows[0], col] == pytest.approx(coeff)

    def test_coefficient_on_example_weight(self):
        assert coherent.displayed_coefficient(1, (1, 2), (-1, 1)) == pytest.approx(1.0)

    def test_commutator_closure_gives_long_root(self):
        g = coherent.gamma_su3(3)
        c13 = g.ladders[(1, 2)] @ g.ladders[(2, 3)] - g.ladders[(2, 3)] @ g.ladders[(1, 2)]
        assert np.array_equal(c13, g.ladders[(1, 3)])

    @pytest.mark.parametrize("lam", range(0, 7))
    def test_every_ladder_is_the_coherent_ladder(self, lam):
        g = coherent.gamma_su3(lam)
        assert sorted(g.ladders) == [(1, 2), (1, 3), (2, 1), (2, 3), (3, 1), (3, 2)]
        for (i, j), mat in g.ladders.items():
            assert np.array_equal(mat, _coherent_ladder(g.basis, i, j))

    @pytest.mark.parametrize("lam", range(0, 5))
    def test_commutation_relations(self, lam):
        g = coherent.gamma_su3(lam)
        assert coherent.gamma_su3_commutation_residual(g) < 1e-12

    def test_ladders_shift_by_roots(self):
        g = coherent.gamma_su3(2)
        for (i, j), mat in g.ladders.items():
            shift = np.array(weight_of(tuple(
                (1 if k == i - 1 else 0) - (1 if k == j - 1 else 0) + 1
                for k in range(3)
            ))) - np.array(weight_of((1, 1, 1)))
            for col, state in enumerate(g.basis.states):
                for row in np.nonzero(np.abs(mat[:, col]) > 0)[0]:
                    dw = np.array(weight_of(g.basis.states[row])) - np.array(
                        weight_of(state)
                    )
                    assert np.array_equal(dw, shift)

    def test_interior_coefficients_flatten_for_large_irreps(self):
        # rescaled ladder coefficients approach 1/3 on a fixed weight window
        deviations = {}
        for lam in (8, 16, 32):
            g = coherent.gamma_su3(lam)
            worst = 0.0
            for col, state in enumerate(g.basis.states):
                x, y = weight_of(state)
                if abs(x) <= 2 and abs(y) <= 2:
                    coeff = state[1]  # ladder coefficient of the (1,2) operator
                    worst = max(worst, abs(coeff / lam - 1.0 / 3.0))
            deviations[lam] = worst
        assert deviations[32] < deviations[16] < deviations[8]
        assert deviations[32] < 0.05


class TestDftEigensystem:
    @pytest.mark.parametrize("dim", [2, 3, 5, 8, 21])
    def test_eigenpairs(self, dim):
        e = phases.su2_shift_E((dim - 1) / 2.0)
        w = np.exp(2j * math.pi / dim)
        for k, (value, vec) in enumerate(coherent.dft_eigensystem(e)):
            assert value == pytest.approx(w**k)
            assert np.max(np.abs(e @ vec - value * vec)) < 1e-12
            assert np.max(np.abs(np.abs(vec) ** 2 - 1.0 / dim)) < 1e-12

    def test_matches_generic_eigensolver(self):
        e = phases.su2_shift_E(2)
        ours = sorted(np.round(v, 9) for v, _ in coherent.dft_eigensystem(e))
        generic = sorted(np.round(v, 9) for v in np.linalg.eigvals(e))
        assert np.allclose(
            sorted(np.angle(ours)), sorted(np.angle(generic)), atol=1e-8
        )

    def test_two_point_fourier(self):
        pairs = coherent.dft_eigensystem(phases.su2_shift_E(0.5))
        vecs = np.array([vec for _, vec in pairs])
        expected = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
        assert np.allclose(np.abs(vecs), np.abs(expected))

    def test_rejects_non_shift(self):
        with pytest.raises(ValueError):
            coherent.dft_eigensystem(np.eye(3, dtype=complex))
