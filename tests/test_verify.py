"""The `verify` checks that run once on a direct sum of small irreps against the
per-irrep loops they replace, rebuilt here irrep by irrep: each residual must be,
bit for bit, the largest of the per-irrep residuals.  The Fourier check, which
builds each spin's vectors as one array, is held against the loop over vectors."""

import math

import numpy as np
import pytest

import oracles
from sunphases import basis as bs
from sunphases import coherent, phases, verify
from sunphases.generators import Monomial, build_generators, commutation_residual

SU3_ROOTS = [(1, 2), (2, 3), (1, 3), (2, 1), (3, 2), (3, 1)]


def commutation(n, lams):
    return [commutation_residual(build_generators(bs.enumerate_basis(n, lam))) for lam in lams]


def polar_identities(lams):
    defects = []
    for lam in lams:
        basis = bs.enumerate_basis(3, lam)
        for root in SU3_ROOTS:
            for convention in ("plus", "paper-sign"):
                factors = phases.polar_decompose(basis, root, convention)
                defects.append(phases.unitarity_residual(factors.monomial))
                defects.append(phases.polar_identity_residual(factors))
    return defects


def coherent_su3(lams):
    return [coherent.gamma_su3_commutation_residual(coherent.gamma_su3(lam)) for lam in lams]


def commutants(two_js):
    """The commutant check spin by spin, as `verify` ran it before the direct sum."""
    defects = []
    for two_j in two_js:
        j = two_j / 2.0
        g = coherent.gamma_su2(j)
        k = coherent.intertwiner_diagonal(j)
        occ = g.basis.occupations
        h = Monomial(np.arange(two_j + 1), (occ[:, 0] - occ[:, 1]) / 2)
        raising, lowering = g.ladder(1, 2), g.ladder(2, 1)
        for other in (h, lowering @ raising, raising @ lowering):
            scale = max(1.0, float(np.max(k)) * max(1.0, float(np.max(np.abs(other.vals)))))
            defects.append(np.max(np.abs((k[other.rows] - k) * other.vals)) / scale)
    return defects


def unbiased(dims):
    """The Fourier check one vector at a time, each entry a power of w in a loop over q."""
    defects = []
    for dim in dims:
        w = np.exp(2j * np.pi / dim)
        for k in range(dim):
            vec = np.array([w ** (-k * q) for q in range(dim)], dtype=complex) / math.sqrt(dim)
            defects.append(np.max(np.abs(np.abs(vec) ** 2 - 1.0 / dim)))
    return defects


@pytest.mark.parametrize(
    "suite, name, per_irrep",
    [
        ("su2", "spin commutation relations, j <= 15", lambda: commutation(2, range(0, 31))),
        ("su3", "boson commutation relations, lam <= 6", lambda: commutation(3, range(0, 7))),
        ("su4", "boson commutation relations, lam <= 4", lambda: commutation(4, range(0, 5))),
        (
            "su3",
            "polar identity E D = C, all roots, lam <= 6",
            lambda: polar_identities(range(0, 7)),
        ),
        ("gamma", "su(3) coherent realization, lam <= 4", lambda: coherent_su3(range(0, 5))),
        (
            "gamma",
            "intertwiner hermitizes, j <= 15",
            lambda: [coherent.hermitize_check(two_j / 2.0) for two_j in range(0, 31)],
        ),
        (
            "gamma",
            "binomial recursion, j <= 30",
            lambda: [coherent.s_recursion_check(two_j / 2.0) for two_j in range(1, 61)],
        ),
        (
            "gamma",
            "phase part equals cyclic shift, j <= 10",
            lambda: [
                coherent._phase_part_defect(coherent.gamma_su2(two_j / 2.0))
                for two_j in range(0, 21)
            ],
        ),
        ("gamma", "intertwiner commutants, j <= 15", lambda: commutants(range(0, 31))),
        ("su2", "Fourier eigenvectors unbiased", lambda: unbiased(range(1, 22))),
    ],
    ids=[
        "su2 commutation",
        "su3 commutation",
        "su4 commutation",
        "polar identity",
        "coherent",
        "hermitize",
        "recursion",
        "phase part",
        "commutants",
        "fourier",
    ],
)
def test_a_direct_sum_check_is_the_worst_irrep(suite, name, per_irrep):
    [check] = [c for c in verify.run_suite(suite) if c.name == name]
    assert oracles.same_bits(check.residual, max(per_irrep()))
