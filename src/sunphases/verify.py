"""Named invariant suites driven by the CLI `verify` subcommand.

Each check evaluates one structural invariant and reports its residual against
a fixed tolerance.  Suites are deterministic and cheap enough to run on every
build.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from . import basis as bs
from . import coherent, pauli, phases
from .generators import Monomial, build_generators, commutation_residual


@dataclass(frozen=True)
class Check:
    suite: str
    name: str
    residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.residual < self.tolerance


def _worst(residuals: Iterable[float]) -> float:
    """Largest of the residuals, NaN if any is NaN, which the builtin max would drop."""
    return float(np.max(list(residuals), initial=0.0))


def suite_su2() -> list[Check]:
    checks = []
    # spin j is the two-mode irrep lambda = 2j, with [C_12, C_21] = h_1 = 2h
    worst = _worst(
        commutation_residual(build_generators(bs.enumerate_basis(2, two_j)))
        for two_j in range(0, 31)
    )
    checks.append(Check("su2", "spin commutation relations, j <= 15", worst, 1e-13))

    shift_defect = []
    spectrum_defect = []
    unbiased_defect = []
    for two_j in range(0, 21):  # dimensions 1..21
        j = two_j / 2.0
        e = phases.su2_shift_E(j)
        dim = two_j + 1
        power = np.linalg.matrix_power(e, dim)
        shift_defect.append(np.max(np.abs(power - np.eye(dim))))
        eigvals = np.linalg.eigvals(e)
        roots = np.exp(2j * np.pi * np.arange(dim) / dim)
        # each root of unity must be hit by exactly one eigenvalue
        spectrum_defect.append(
            np.max(np.min(np.abs(eigvals[:, None] - roots[None, :]), axis=0))
        )
        for _, vec in coherent.dft_eigensystem(e):
            unbiased_defect.append(np.max(np.abs(np.abs(vec) ** 2 - 1.0 / dim)))
    checks.append(Check("su2", "shift matrix order 2j+1", _worst(shift_defect), 1e-10))
    checks.append(
        Check("su2", "shift spectrum = roots of unity", _worst(spectrum_defect), 1e-10)
    )
    checks.append(
        Check("su2", "Fourier eigenvectors unbiased", _worst(unbiased_defect), 1e-10)
    )
    return checks


def suite_su3() -> list[Check]:
    checks = []
    worst = _worst(
        commutation_residual(build_generators(bs.enumerate_basis(3, lam)))
        for lam in range(0, 7)
    )
    checks.append(Check("su3", "boson commutation relations, lam <= 6", worst, 1e-12))

    worst = _worst(phases.d_identity_residual(lam) for lam in range(0, 9))
    checks.append(Check("su3", "squared-D Cartan identities, lam <= 8", worst, 1e-12))

    worst = _worst(
        abs(report.normalized_norm - float(report.formula_value))
        for report in phases.noncommutativity_norm(3, range(1, 11))
    )
    checks.append(
        Check("su3", "normalized commutator norm vs formula, lam <= 10", worst, 1e-9)
    )

    defects = []
    for lam in range(0, 7):
        basis = bs.enumerate_basis(3, lam)
        for root in [(1, 2), (2, 3), (1, 3), (2, 1), (3, 2), (3, 1)]:
            for convention in ("plus", "paper-sign"):
                factors = phases.polar_decompose(basis, root, convention)
                defects.append(phases.unitarity_residual(factors.monomial))
                defects.append(phases.polar_identity_residual(factors))
    worst = _worst(defects)
    checks.append(
        Check("su3", "polar identity E D = C, all roots, lam <= 6", worst, 1e-12)
    )
    return checks


def suite_su4() -> list[Check]:
    checks = []
    worst = _worst(
        commutation_residual(build_generators(bs.enumerate_basis(4, lam)))
        for lam in range(0, 5)
    )
    checks.append(Check("su4", "boson commutation relations, lam <= 4", worst, 1e-12))

    defects = []
    for lam in range(0, 7):
        basis = bs.enumerate_basis(4, lam)
        count_a, count_b, inter, union = bs.edge_overlap_count(
            basis, (1, 2), (3, 1)
        )
        expected_edge = (lam + 1) * (lam + 2) // 2
        defects += [
            abs(count_a - expected_edge),
            abs(count_b - expected_edge),
            abs(inter - (lam + 1)),
            abs(union - (2 * expected_edge - (lam + 1))),
        ]
    worst = _worst(defects)
    checks.append(Check("su4", "edge counting, lam <= 6", worst, 0.5))

    worst = _worst(
        abs(report.raw_norm - 2.0 * (report.dimension - report.fixed_point_count))
        for report in phases.noncommutativity_norm(4, range(0, 5))
    )
    checks.append(
        Check("su4", "norm identity ||M||^2 = 2(d - fixed), lam <= 4", worst, 1e-10)
    )
    return checks


def suite_pauli() -> list[Check]:
    checks = []
    pair = pauli.pauli_generators(3)
    checks.append(
        Check("pauli", "clock-shift exchange relations", pauli.pauli_relation_residual(pair), 1e-12)
    )
    eye = np.eye(3)
    order_defect = _worst(
        np.max(np.abs(np.linalg.matrix_power(m, 3) - eye)) for m in (pair.x, pair.z)
    )
    checks.append(Check("pauli", "X^3 = Z^3 = identity", order_defect, 1e-12))

    defects = []
    for angle in np.linspace(0.0, 2 * np.pi, 7):
        defects += [
            pauli.complementarity_check(pauli.complementary_E12(angle)),
            phases.unitarity_residual(pauli.complementary_E12(angle)),
            phases.unitarity_residual(pauli.complementary_E23(angle)),
        ]
    worst = _worst(defects)
    checks.append(Check("pauli", "complementary family", worst, 1e-12))

    solutions = pauli.additivity_solve()
    defects = []
    for sol in solutions:
        e12 = pauli.complementary_E12(sol.beta)
        e23 = pauli.complementary_E23(sol.gamma)
        defects.append(np.max(np.abs(e12 @ e23 - e23 @ e12)))
    worst = _worst(defects)
    if not any(s.simplest_nontrivial for s in solutions):
        worst = np.inf
    checks.append(Check("pauli", "additive solutions commute", worst, 1e-12))
    return checks


def suite_gamma() -> list[Check]:
    checks = []
    worst = _worst(coherent.hermitize_check(j / 2.0) for j in range(0, 31))
    checks.append(Check("gamma", "intertwiner hermitizes, j <= 15", worst, 1e-9))

    worst = _worst(coherent.s_recursion_check(j / 2.0) for j in range(1, 61))
    checks.append(Check("gamma", "binomial recursion, j <= 30", worst, 1e-12))

    worst = _worst(
        coherent._phase_part_defect(coherent.gamma_su2(j / 2.0)) for j in range(0, 21)
    )
    checks.append(Check("gamma", "phase part equals cyclic shift, j <= 10", worst, 1e-15))

    defects = []
    for two_j in range(0, 31):
        j = two_j / 2.0
        g = coherent.gamma_su2(j)
        # K is diagonal, so its commutator with A has entries (k_i - k_j) A_ij
        k = coherent.intertwiner_diagonal(j)
        occ = g.basis.occupations
        h = Monomial(np.arange(two_j + 1), (occ[:, 0] - occ[:, 1]) / 2)
        raising, lowering = g.ladder(1, 2), g.ladder(2, 1)
        for other in (h, lowering @ raising, raising @ lowering):
            scale = max(1.0, float(np.max(k)) * max(1.0, float(np.max(np.abs(other.vals)))))
            defects.append(np.max(np.abs((k[other.rows] - k) * other.vals)) / scale)
    worst = _worst(defects)
    checks.append(Check("gamma", "intertwiner commutants, j <= 15", worst, 1e-10))

    worst = _worst(
        coherent.gamma_su3_commutation_residual(coherent.gamma_su3(lam))
        for lam in range(0, 5)
    )
    checks.append(Check("gamma", "su(3) coherent realization, lam <= 4", worst, 1e-12))
    return checks


_SUITE_FUNCS: dict[str, Callable[[], list[Check]]] = {
    "su2": suite_su2,
    "su3": suite_su3,
    "su4": suite_su4,
    "pauli": suite_pauli,
    "gamma": suite_gamma,
}

SUITES = ("all", *_SUITE_FUNCS)


def run_suite(name: str) -> list[Check]:
    if name == "all":
        return [check for suite in _SUITE_FUNCS.values() for check in suite()]
    if name not in _SUITE_FUNCS:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITES}")
    return _SUITE_FUNCS[name]()
