"""The `verify` checks that run once on a direct sum of small irreps against the
per-irrep loops they replace, rebuilt here irrep by irrep: each residual must be,
bit for bit, the largest of the per-irrep residuals."""

import pytest

import oracles
from sunphases import basis as bs
from sunphases import coherent, phases, verify
from sunphases.generators import build_generators, commutation_residual

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
    ],
    ids=["su2 commutation", "su3 commutation", "su4 commutation", "polar identity", "coherent"],
)
def test_a_direct_sum_check_is_the_worst_irrep(suite, name, per_irrep):
    [check] = [c for c in verify.run_suite(suite) if c.name == name]
    assert oracles.same_bits(check.residual, max(per_irrep()))
