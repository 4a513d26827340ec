"""Command-line front end.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 internal
residual breach (an implementation bug, not bad input).
"""

from __future__ import annotations

import sys
from pathlib import Path

import click
import numpy as np

from . import basis as bs
from . import coherent, pauli, phases, report, verify
from .generators import build_generators, commutation_residual, generator_matrix

EXIT_VERIFY_FAILED = 1
EXIT_RESIDUAL_BREACH = 3


def _emit(text: str, out: Path | None) -> None:
    if out is None:
        click.echo(text, nl=False)
    else:
        out.write_text(text)


def _parse_root(value: str) -> tuple[int, int]:
    try:
        i, j = (int(part) for part in value.split(","))
        return (i, j)
    except ValueError:
        raise click.UsageError(f"root must look like 'i,j', got {value!r}")


@click.group()
def main() -> None:
    """Phase operators for symmetric su(n) irreps."""


@main.command("basis")
@click.option("--n", type=int, required=True, help="number of boson modes")
@click.option("--lambda", "lam", type=int, required=True, help="total occupation")
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json")
@click.option("--out", type=click.Path(path_type=Path), default=None)
def cmd_basis(n: int, lam: int, fmt: str, out: Path | None) -> None:
    """Emit the ordered occupation basis with weights."""
    try:
        basis = bs.enumerate_basis(n, lam)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    rows = [
        {
            "index": k,
            "occupations": list(state),
            "weight": list(bs.weight_of(state)),
        }
        for k, state in enumerate(basis.states)
    ]
    if fmt == "csv":
        flat = [
            {
                "index": row["index"],
                "occupations": " ".join(map(str, row["occupations"])),
                "weight": " ".join(map(str, row["weight"])),
            }
            for row in rows
        ]
        _emit(report.sweep_csv(flat), out)
        return
    env = report.envelope(
        "basis",
        {"n": n, "lambda": lam},
        {"dimension": len(basis), "states": rows},
    )
    _emit(report.dumps(env), out)


@main.command("gens")
@click.option("--n", type=int, required=True)
@click.option("--lambda", "lam", type=int, required=True)
@click.option("--out", type=click.Path(path_type=Path), default=None)
def cmd_gens(n: int, lam: int, out: Path | None) -> None:
    """Emit ladder and Cartan matrices plus the commutation residual."""
    try:
        basis = bs.enumerate_basis(n, lam)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    gens = build_generators(basis)
    residual = commutation_residual(gens)
    env = report.envelope(
        "gens",
        {"n": n, "lambda": lam},
        {"dimension": len(basis)},
        {"commutation": residual},
    )
    matrices = {f"C_{i}{j}": mat for (i, j), mat in sorted(gens.ladders.items())}
    matrices.update({f"h_{k + 1}": mat for k, mat in enumerate(gens.cartans)})
    report.spill_large_matrices(env, matrices, out)
    _emit(report.dumps(env), out)
    if residual > 1e-10:
        sys.exit(EXIT_RESIDUAL_BREACH)


@main.command("phases")
@click.option("--n", type=int, required=True)
@click.option("--lambda", "lam", type=int, required=True)
@click.option("--root", default="1,2", help="ladder operator label i,j")
@click.option(
    "--convention",
    type=click.Choice(["plus", "paper-sign", "complementary"]),
    default="plus",
)
@click.option("--beta", type=float, default=None, help="complementary angle for E_12")
@click.option("--gamma", type=float, default=None, help="complementary angle for E_23")
@click.option("--out", type=click.Path(path_type=Path), default=None)
def cmd_phases(
    n: int,
    lam: int,
    root: str,
    convention: str,
    beta: float | None,
    gamma: float | None,
    out: Path | None,
) -> None:
    """Emit E, D and the Hermitian phase matrix for one ladder operator."""
    root_pair = _parse_root(root)
    try:
        basis = bs.enumerate_basis(n, lam)
        bs.check_root(n, root_pair)
    except ValueError as exc:
        raise click.UsageError(str(exc))

    cmat = generator_matrix(basis, *root_pair)
    if convention == "complementary":
        if (n, lam) != (3, 1):
            raise click.UsageError(
                "complementary completion is defined for the fundamental su(3) irrep only"
            )
        if root_pair == (1, 2):
            emat = pauli.complementary_E12(beta if beta is not None else 0.0)
        elif root_pair == (2, 3):
            emat = pauli.complementary_E23(gamma if gamma is not None else 0.0)
        else:
            raise click.UsageError(
                f"complementary completion covers roots 1,2 and 2,3 only, got {root}"
            )
        dmat = phases.positive_factor(cmat)
    else:
        factors = phases.polar_decompose(basis, root_pair, convention)
        emat, dmat = factors.unitary, factors.positive

    residuals = {
        "unitarity": phases.unitarity_residual(emat),
        "polar_identity": float(np.max(np.abs(emat @ dmat - cmat))),
    }
    env = report.envelope(
        "phases",
        {
            "n": n,
            "lambda": lam,
            "root": list(root_pair),
            "convention": convention,
            "beta": beta,
            "gamma": gamma,
        },
        {"dimension": len(basis)},
        residuals,
    )
    matrices = {"E": emat, "D": dmat, "phi": phases.phase_hermitian(emat)}
    report.spill_large_matrices(env, matrices, out)
    _emit(report.dumps(env), out)
    if max(residuals.values()) > 1e-10:
        sys.exit(EXIT_RESIDUAL_BREACH)


@main.command("sweep")
@click.option("--n", type=int, required=True)
@click.option("--from", "lam_min", type=int, required=True)
@click.option("--to", "lam_max", type=int, required=True)
@click.option("--root", "roots", multiple=True, help="pair of roots, repeatable")
@click.option(
    "--convention", type=click.Choice(["plus", "paper-sign"]), default="plus"
)
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json")
@click.option("--threads", type=int, default=1)
@click.option("--out", type=click.Path(path_type=Path), default=None)
def cmd_sweep(
    n: int,
    lam_min: int,
    lam_max: int,
    roots: tuple[str, ...],
    convention: str,
    fmt: str,
    threads: int,
    out: Path | None,
) -> None:
    """Non-commutativity norms over a range of irreps, with formula columns."""
    if roots and len(roots) != 2:
        raise click.UsageError("--root must be given exactly twice (a pair) or not at all")
    root_a, root_b = (
        (_parse_root(roots[0]), _parse_root(roots[1])) if roots else ((1, 2), (3, 1))
    )
    try:
        bs.check_root(n, root_a)
        bs.check_root(n, root_b)
        rows = phases.sweep(
            n, lam_min, lam_max, root_a, root_b, convention, threads=threads
        )
    except ValueError as exc:
        raise click.UsageError(str(exc))

    table = []
    for r in rows:
        formula = None if r.formula_value is None else float(r.formula_value)
        table.append(
            {
                "lambda": r.lam,
                "dimension": r.dimension,
                "raw_norm": r.raw_norm,
                "normalized_norm": r.normalized_norm,
                "formula_value": formula,
                "difference": None if formula is None else r.normalized_norm - formula,
                "fixed_points": r.fixed_point_count,
            }
        )
    try:
        slope = phases.decay_fit(rows)
    except ValueError:
        slope = None

    if fmt == "csv":
        _emit(report.sweep_csv(table), out)
        return
    env = report.envelope(
        "sweep",
        {
            "n": n,
            "from": lam_min,
            "to": lam_max,
            "roots": [list(root_a), list(root_b)],
            "convention": convention,
        },
        {"rows": table, "decay_exponent": slope},
    )
    _emit(report.dumps(env), out)


@main.command("pauli")
@click.option("--out", type=click.Path(path_type=Path), default=None)
def cmd_pauli(out: Path | None) -> None:
    """Emit the generalized Pauli pair and the additive complementary solutions."""
    pair = pauli.pauli_generators(3)
    solutions = [
        {
            "beta": sol.beta,
            "gamma": sol.gamma,
            "simplest_nontrivial": sol.simplest_nontrivial,
        }
        for sol in pauli.additivity_solve()
    ]
    env = report.envelope(
        "pauli",
        {"d": 3},
        {
            "X": report.matrix_payload(pair.x),
            "Z": report.matrix_payload(pair.z),
            "additive_solutions": solutions,
        },
        {"exchange_relations": pauli.pauli_relation_residual(pair)},
    )
    _emit(report.dumps(env), out)


@main.command("gamma")
@click.option("--j", "spin", type=float, default=None, help="su(2) spin")
@click.option("--lambda", "lam", type=int, default=None, help="su(3) irrep label")
@click.option("--out", type=click.Path(path_type=Path), default=None)
def cmd_gamma(spin: float | None, lam: int | None, out: Path | None) -> None:
    """Coherent-state realization diagnostics for su(2) (--j) or su(3) (--lambda)."""
    if (spin is None) == (lam is None):
        raise click.UsageError("give exactly one of --j or --lambda")
    if spin is not None:
        try:
            g = coherent.gamma_su2(spin)
        except ValueError as exc:
            raise click.UsageError(str(exc))
        env = report.envelope(
            "gamma",
            {"j": spin},
            {
                "witness": coherent.nonhermiticity_witness(g),
                "intertwiner_diagonal": [
                    float(v.real) for v in np.diag(coherent.intertwiner(spin))
                ],
            },
            {
                "hermitize": coherent.hermitize_check(spin),
                "recursion": coherent.s_recursion_check(spin),
                "phase_part_vs_shift": float(
                    np.max(
                        np.abs(coherent.gamma_phase_part(g) - phases.su2_shift_E(spin))
                    )
                ),
            },
        )
    else:
        try:
            g3 = coherent.gamma_su3(lam)
        except ValueError as exc:
            raise click.UsageError(str(exc))
        env = report.envelope(
            "gamma",
            {"lambda": lam},
            {"dimension": len(g3.basis)},
            {"commutation": coherent.gamma_su3_commutation_residual(g3)},
        )
    _emit(report.dumps(env), out)


@main.command("verify")
@click.option("--suite", type=click.Choice(list(verify.SUITES)), default="all")
@click.option("--out", type=click.Path(path_type=Path), default=None)
def cmd_verify(suite: str, out: Path | None) -> None:
    """Run an invariant suite; exit 0 iff every check passes."""
    checks = verify.run_suite(suite)
    lines = []
    for check in checks:
        status = "PASS" if check.passed else "FAIL"
        lines.append(
            f"{status} [{check.suite}] {check.name}: "
            f"residual {check.residual:.3e} (tol {check.tolerance:.0e})"
        )
    text = "\n".join(lines) + "\n"
    _emit(text, out)
    if out is not None:
        click.echo(text, nl=False)
    if not all(check.passed for check in checks):
        sys.exit(EXIT_VERIFY_FAILED)


if __name__ == "__main__":
    main()
