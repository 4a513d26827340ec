"""End-to-end acceptance checks.

Each test covers one release criterion and prints a single PASS/FAIL line
(visible with ``pytest -s`` or on failure) before asserting, so the full
scorecard is readable even when a criterion is red.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from click.testing import CliRunner

from sunphases import basis as bs
from sunphases import coherent, pauli, phases
from sunphases.cli import main as cli_main
from sunphases.generators import (
    build_generators,
    commutation_residual,
    generator_matrix,
    su2_matrices,
)


def scoreline(num, label, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num:2d} ({label}): {detail}")


def test_criterion_01_commutation_suite():
    start = time.monotonic()
    # np.max keeps a NaN residual wherever it stands; the builtin max drops it
    # unless it comes first
    worst = np.max(
        [
            commutation_residual(build_generators(bs.enumerate_basis(n, lam)))
            for n in (2, 3, 4)
            for lam in range(0, 7)
        ]
    )
    defects = []
    for two_j in range(0, 31):
        m = su2_matrices(two_j / 2.0)
        h, e_plus, e_minus = m.cartans[0] / 2, m.ladders[1, 2], m.ladders[2, 1]
        defects += [
            np.max(np.abs(h @ e_plus - e_plus @ h - e_plus)),
            np.max(np.abs(h @ e_minus - e_minus @ h + e_minus)),
            np.max(np.abs(e_plus @ e_minus - e_minus @ e_plus - 2 * h)),
        ]
    worst_su2 = np.max(defects)
    elapsed = time.monotonic() - start
    ok = worst < 1e-12 and worst_su2 < 1e-13 and elapsed < 10.0
    scoreline(
        1,
        "commutation relations",
        ok,
        f"boson residual {worst:.2e} (tol 1e-12), spin residual {worst_su2:.2e} "
        f"(tol 1e-13), {elapsed:.1f}s",
    )
    assert worst < 1e-12
    assert worst_su2 < 1e-13
    assert elapsed < 10.0


def test_criterion_02_su3_norm_formula():
    start = time.monotonic()
    defects = []
    spot = {}
    for lam in range(1, 11):
        rep = phases.noncommutativity_norm(3, lam)
        defects.append(abs(rep.normalized_norm - float(rep.formula_value)))
        # independent oracle: norm counts non-fixed points of the commutator
        oracle = 2.0 * (rep.dimension - rep.fixed_point_count)
        defects.append(abs(rep.raw_norm - oracle))
        spot[lam] = rep.normalized_norm
    worst = np.max(defects)
    elapsed = time.monotonic() - start
    ok = (
        worst < 1e-9
        and abs(spot[1] - 2.0) < 1e-9
        and abs(spot[2] - 5.0 / 3.0) < 1e-9
        and elapsed < 5.0
    )
    scoreline(
        2,
        "su(3) norm formula",
        ok,
        f"max deviation {worst:.2e} (tol 1e-9) over lam=1..10, "
        f"spot lam=1: {spot[1]:.6f}, lam=2: {spot[2]:.6f}, {elapsed:.1f}s",
    )
    assert worst < 1e-9
    assert spot[1] == pytest.approx(2.0, abs=1e-9)
    assert spot[2] == pytest.approx(5.0 / 3.0, abs=1e-9)
    assert elapsed < 5.0


def test_criterion_03_fundamental_explicit_solutions():
    b = bs.enumerate_basis(3, 1)
    e12 = phases.su2_invariant_completion(b, (1, 2), "paper-sign").dense()
    e23 = phases.su2_invariant_completion(b, (2, 3), "paper-sign").dense()
    exact = np.array_equal(
        e12, np.array([[0, 1, 0], [-1, 0, 0], [0, 0, 1]])
    ) and np.array_equal(e23, np.array([[1, 0, 0], [0, 0, 1], [0, -1, 0]]))

    phi = phases.phase_hermitian(e12.astype(complex))
    phi_target = (math.pi / 2) * np.array(
        [[0, -1j, 0], [1j, 0, 0], [0, 0, 0]], dtype=complex
    )
    phi_defect = float(np.max(np.abs(phi - phi_target)))

    c12, c23, c13 = pauli.omega_solution_matrices()
    comp_defect = np.max(
        [
            np.max(np.abs(pauli.complementary_E12(2 * math.pi / 3) - c12)),
            np.max(np.abs(pauli.complementary_E23(-2 * math.pi / 3) - c23)),
        ]
    )
    product_defect = float(np.max(np.abs(c12 @ c23 - c13)))

    ok = exact and phi_defect < 1e-10 and comp_defect < 1e-13 and product_defect < 1e-13
    scoreline(
        3,
        "fundamental explicit solutions",
        ok,
        f"signed completions exact: {exact}, phase matrix defect {phi_defect:.2e} "
        f"(tol 1e-10), omega-matrix defect {comp_defect:.2e}, "
        f"product defect {product_defect:.2e} (tol 1e-13)",
    )
    assert exact
    assert phi_defect < 1e-10
    assert comp_defect < 1e-13
    assert product_defect < 1e-13


def test_criterion_04_pauli_relations():
    pair = pauli.pauli_generators(3)
    residual = pauli.pauli_relation_residual(pair)
    order_defect = np.max(
        [
            np.max(np.abs(np.linalg.matrix_power(pair.x, 3) - np.eye(3))),
            np.max(np.abs(np.linalg.matrix_power(pair.z, 3) - np.eye(3))),
        ]
    )
    ok = residual < 1e-12 and order_defect < 1e-12
    scoreline(
        4,
        "generalized Pauli relations",
        ok,
        f"exchange residual {residual:.2e}, cube defect {order_defect:.2e} (tol 1e-12)",
    )
    assert residual < 1e-12
    assert order_defect < 1e-12


def test_criterion_05_hermitization_suite():
    worst_herm = np.max([coherent.hermitize_check(j / 2.0) for j in range(0, 31)])
    worst_rec = np.max([coherent.s_recursion_check(j / 2.0) for j in range(1, 61)])
    shift_exact = all(
        np.array_equal(
            coherent.gamma_phase_part(coherent.gamma_su2(two_j / 2.0)).dense(),
            phases.su2_shift_E(two_j / 2.0),
        )
        for two_j in range(0, 21)
    )
    defects = []
    for two_j in range(0, 31):
        g = coherent.gamma_su2(two_j / 2.0)
        h, e_plus, e_minus = g.cartans[0] / 2, g.ladders[1, 2], g.ladders[2, 1]
        k = coherent.intertwiner(two_j / 2.0)
        for other in (h, e_plus @ e_minus, e_minus @ e_plus):
            scale = max(1.0, float(np.max(np.abs(k)) * max(1.0, np.max(np.abs(other)))))
            defects.append(float(np.max(np.abs(k @ other - other @ k))) / scale)
    worst_comm = np.max(defects)
    ok = worst_herm < 1e-9 and worst_rec < 1e-12 and shift_exact and worst_comm < 1e-10
    scoreline(
        5,
        "coherent-state hermitization",
        ok,
        f"hermitize {worst_herm:.2e} (tol 1e-9), recursion {worst_rec:.2e} "
        f"(tol 1e-12), phase part exact: {shift_exact}, commutant {worst_comm:.2e} "
        f"(tol 1e-10)",
    )
    assert worst_herm < 1e-9
    assert worst_rec < 1e-12
    assert shift_exact
    assert worst_comm < 1e-10


def test_criterion_06_spectrum_and_unbiasedness():
    spec, bias = [], []
    for dim in range(1, 22):
        e = phases.su2_shift_E((dim - 1) / 2.0)
        eigvals, eigvecs = np.linalg.eig(e)
        roots = np.exp(2j * np.pi * np.arange(dim) / dim)
        dist = np.abs(eigvals[:, None] - roots[None, :])
        spec.append(np.max(np.min(dist, axis=1)))
        overlaps = np.abs(eigvecs) ** 2  # columns normalized by eig
        bias.append(np.max(np.abs(overlaps - 1.0 / dim)))
    worst_spec, worst_bias = np.max(spec), np.max(bias)
    ok = worst_spec < 1e-10 and worst_bias < 1e-10
    scoreline(
        6,
        "shift spectrum and unbiased bases",
        ok,
        f"root-of-unity defect {worst_spec:.2e}, overlap defect {worst_bias:.2e} "
        f"(tol 1e-10), dimensions up to 21",
    )
    assert worst_spec < 1e-10
    assert worst_bias < 1e-10


def test_criterion_07_d_operator_identities():
    worst = np.max([phases.d_identity_residual(lam) for lam in range(0, 9)])
    ok = worst < 1e-12
    scoreline(
        7,
        "modulus-operator identities",
        ok,
        f"max residual {worst:.2e} (tol 1e-12) over lam <= 8",
    )
    assert worst < 1e-12


def test_criterion_08_su4_scaling():
    reports = phases.sweep(4, 2, 8)
    # comparison column must be present for every row
    table_ok = all(r.formula_value is not None for r in reports)
    sample = reports[0]
    assert sample.formula_value == Fraction(6 * (2 * 3 * 4 - 3 - 1), 3 * 4 * 5)
    slope = phases.decay_fit(reports)
    ok = table_ok and -1.15 <= slope <= -0.85
    scoreline(
        8,
        "su(4) decay law",
        ok,
        f"fitted log-log slope {slope:.3f} (required in [-1.15, -0.85]), "
        f"comparison column present: {table_ok}",
    )
    assert table_ok
    assert -1.15 <= slope <= -0.85


def test_criterion_09_su3_coherent_representation():
    worst = np.max(
        [coherent.gamma_su3_commutation_residual(coherent.gamma_su3(lam)) for lam in range(0, 5)]
    )
    # root assignment check: each ladder shifts weights by its root
    g = coherent.gamma_su3(2)
    c12 = g.ladders[(1, 2)]
    shifts_ok = True
    for col, state in enumerate(g.basis.states):
        for row in np.nonzero(np.abs(c12[:, col]) > 0)[0]:
            dw = np.subtract(
                bs.weight_of(g.basis.states[row]), bs.weight_of(state)
            )
            shifts_ok = shifts_ok and tuple(dw) == (2, -1)
    ok = worst < 1e-12 and shifts_ok
    scoreline(
        9,
        "su(3) coherent realization",
        ok,
        f"commutation residual {worst:.2e} (tol 1e-12) for lam <= 4, "
        f"weight shifts consistent: {shifts_ok}",
    )
    assert worst < 1e-12
    assert shifts_ok


def test_criterion_10_determinism():
    runner = CliRunner()

    def run(args):
        result = runner.invoke(cli_main, args)
        assert result.exit_code == 0
        return result.output

    def normalized(args):
        data = json.loads(run(args))
        data.pop("timestamp", None)
        return data

    verify_same = run(["verify", "--suite", "all"]) == run(["verify", "--suite", "all"])
    sweep_args = ["sweep", "--n", "3", "--from", "1", "--to", "6"]
    serial = normalized(sweep_args + ["--threads", "1"])
    repeat = normalized(sweep_args + ["--threads", "1"])
    parallel = normalized(sweep_args + ["--threads", "4"])
    sweep_same = serial == repeat == parallel
    ok = verify_same and sweep_same
    scoreline(
        10,
        "deterministic reports",
        ok,
        f"verify payloads identical: {verify_same}, sweep payloads identical "
        f"across repeats and thread counts: {sweep_same}",
    )
    assert verify_same
    assert sweep_same


def test_a_nan_residual_fails_criterion_05(monkeypatch):
    # the builtin max drops a NaN that does not come first; np.max keeps it
    check = coherent.hermitize_check
    monkeypatch.setattr(coherent, "hermitize_check", lambda j: math.nan if j == 1 else check(j))
    with pytest.raises(AssertionError):
        test_criterion_05_hermitization_suite()
