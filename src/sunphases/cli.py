"""Command-line front end.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 internal
residual breach of `gens` or `phases` (an implementation bug, not bad input).
"""

from __future__ import annotations

import dataclasses
import os
import sys
from pathlib import Path
from typing import Any, Callable

import click
import numpy as np

from . import basis as bs
from . import coherent, pauli, phases, report, verify
from .generators import _check_spin
from .generators import build_generators, commutation_residual

EXIT_VERIFY_FAILED = 1
EXIT_RESIDUAL_BREACH = 3

#: The one complementary root each angle option parametrizes.
_ANGLE_ROOTS = {"beta": (1, 2), "gamma": (2, 3)}


def _emit(text: str, out: Path | None) -> None:
    if out is None:
        click.echo(text, nl=False)
    else:
        out.write_text(text)


def _emit_report(
    command: str,
    parameters: dict[str, Any],
    results: dict[str, Any],
    out: Path | None,
    residuals: dict[str, float] | None = None,
) -> None:
    """Envelope the values, spill matrices too large to inline, emit the JSON."""
    env = report.envelope(command, parameters, results, residuals)
    report.spill_large_matrices(env, out)
    _emit(report.dumps(env), out)


def _physical_memory() -> int:
    """Bytes of physical memory on this machine."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _basis_bytes(n: int, d: int) -> int:
    # Peak of the `basis` JSON payload (CSV costs less) above an idle CLI, measured
    # in process: 1.76 KB per state at n = 3 (d = 80 601), 2.29 KB at n = 6 (d = 80 730).
    return (1250 + 175 * n) * d


def _sweep_bytes(in_flight: int) -> Callable[[int, int], int]:
    # Peak of one lambda above an idle CLI, measured in process (VmHWM) at two sizes
    # and taken as the slope between them: 96 bytes per state at n = 2 (lambda =
    # 200 000 and 600 000), 104 at n = 3 (500 and 1000), 113 at n = 4 (100 and 150),
    # 122 at n = 5 (30 and 40) and 143 at n = 6 (15 and 20).  The pool holds one
    # lambda per thread, so in_flight is min(threads, number of lambdas).
    return lambda n, d: (72 + 12 * n) * d * in_flight


# Peak above an idle CLI in bytes per d x d entry, measured in process (VmHWM) at two
# sizes each and taken as the slope between them; --out changes only phases and gens.
#   phases  485, 276 with --out: the largest over n = 2 (lambda = 600 and 1000, one
#           cycle, so phi is dense), n = 3 (362 and 225, lambda = 30 and 50), n = 4
#           (347 and 220, lambda = 14 and 18) and n = 5 (412 and 220, lambda = 8, 10)
#   gens    112 per matrix, 150 + 16 per matrix with --out, for all n^2 - 1 of them
#           (n = 3, lambda = 40 and 50; n = 4, lambda = 8 to 16)
#   gamma   243 with --lambda 30 and 50, 203 with --j 500 and 1000
def _per_entry(nbytes: float) -> Callable[[int, int], int]:
    return lambda n, d: int(nbytes * d * d)


def _refuse_unfit(n: int, lam: int, nbytes: Callable[[int, int], int]) -> None:
    """Usage error when the irrep needs nbytes(n, d) beyond physical memory.

    The check runs before anything is enumerated.
    """
    d = bs.dimension(n, lam)
    need = nbytes(n, d)
    if need > _physical_memory():
        raise click.UsageError(
            f"n={n}, lambda={lam} has dimension {d} and needs "
            f"{need / 2**30:.2f} GiB, more than physical memory"
        )


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
        _refuse_unfit(n, lam, _basis_bytes)
        basis = bs.enumerate_basis(n, lam)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    rows = [
        {"index": k, "occupations": state, "weight": bs.weight_of(state)}
        for k, state in enumerate(basis.states)
    ]
    if fmt == "csv":
        _emit(report.sweep_csv(rows), out)
        return
    _emit_report(
        "basis", {"n": n, "lambda": lam}, {"dimension": len(basis), "states": rows}, out
    )


@main.command("gens")
@click.option("--n", type=int, required=True)
@click.option("--lambda", "lam", type=int, required=True)
@click.option("--out", type=click.Path(path_type=Path), default=None)
def cmd_gens(n: int, lam: int, out: Path | None) -> None:
    """Emit ladder and Cartan matrices plus the commutation residual."""
    matrices = n * n - 1
    try:
        _refuse_unfit(n, lam, _per_entry(112 * matrices if out is None else 150 + 16 * matrices))
        basis = bs.enumerate_basis(n, lam)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    gens = build_generators(basis)
    residuals = {"commutation": commutation_residual(gens)}
    results = {"dimension": len(basis)}
    results |= {f"C_{i}{j}": mat for (i, j), mat in gens.ladders.items()}
    results |= {f"h_{k + 1}": mat for k, mat in enumerate(gens.cartans)}
    _emit_report("gens", {"n": n, "lambda": lam}, results, out, residuals)
    if max(residuals.values()) > 1e-10:
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
    for flag, value in (("beta", beta), ("gamma", gamma)):
        i, j = _ANGLE_ROOTS[flag]
        if value is not None and (convention, root_pair) != ("complementary", (i, j)):
            raise click.UsageError(
                f"--{flag} applies only to --convention complementary --root {i},{j}"
            )
    try:
        _refuse_unfit(n, lam, _per_entry(485 if out is None else 276))
        basis = bs.enumerate_basis(n, lam)
        factors = phases.polar_decompose(
            basis, root_pair, convention, beta if beta is not None else gamma
        )
    except ValueError as exc:
        raise click.UsageError(str(exc))

    emat, dmat = factors.unitary, factors.positive
    residuals = {
        "unitarity": phases.unitarity_residual(emat),
        "polar_identity": float(np.max(np.abs(emat @ dmat - factors.ladder))),
    }
    _emit_report(
        "phases",
        {
            "n": n,
            "lambda": lam,
            "root": root_pair,
            "convention": convention,
            "beta": beta,
            "gamma": gamma,
        },
        {"dimension": len(basis), "E": emat, "D": dmat, "phi": phases.phase_hermitian(emat)},
        out,
        residuals,
    )
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
@click.option("--threads", type=click.IntRange(min=1), default=1)
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
        _refuse_unfit(n, lam_max, _sweep_bytes(min(threads, lam_max - lam_min + 1)))
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
    _emit_report(
        "sweep",
        {
            "n": n,
            "from": lam_min,
            "to": lam_max,
            "roots": [root_a, root_b],
            "convention": convention,
        },
        {"rows": table, "decay_exponent": slope},
        out,
    )


@main.command("pauli")
@click.option("--out", type=click.Path(path_type=Path), default=None)
def cmd_pauli(out: Path | None) -> None:
    """Emit the generalized Pauli pair and the additive complementary solutions."""
    pair = pauli.pauli_generators(3)
    solutions = [dataclasses.asdict(sol) for sol in pauli.additivity_solve()]
    _emit_report(
        "pauli",
        {"d": 3},
        {"X": pair.x, "Z": pair.z, "additive_solutions": solutions},
        out,
        {"exchange_relations": pauli.pauli_relation_residual(pair)},
    )


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
            _refuse_unfit(2, _check_spin(spin), _per_entry(203))
            diagonal = coherent._intertwiner_diagonal(spin)
            g = coherent.gamma_su2(spin)
        except ValueError as exc:
            raise click.UsageError(str(exc))
        _emit_report(
            "gamma",
            {"j": spin},
            {
                "witness": coherent.nonhermiticity_witness(g),
                "intertwiner_diagonal": diagonal.tolist(),
            },
            out,
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
            _refuse_unfit(3, lam, _per_entry(243))
            g3 = coherent.gamma_su3(lam)
        except ValueError as exc:
            raise click.UsageError(str(exc))
        _emit_report(
            "gamma",
            {"lambda": lam},
            {"dimension": len(g3.basis)},
            out,
            {"commutation": coherent.gamma_su3_commutation_residual(g3)},
        )


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
