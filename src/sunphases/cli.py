"""Command-line front end.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 internal
residual breach of `gens` or `phases` (an implementation bug, not bad input).
"""

from __future__ import annotations

import dataclasses
import itertools
import os
import sys
from pathlib import Path
from typing import Any, Callable

import click

from . import basis as bs
from . import coherent, pauli, phases, report, verify
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
    """Envelope the values, spill matrices too large to inline, emit the JSON.

    Without out the JSON streams to stdout's binary buffer.  With out each matrix
    above the inline limit streams to its sidecar, and the envelope, left with
    matrices of at most report.INLINE_DIM_LIMIT rows, is rendered whole before
    the file is opened: a payload `report` refuses leaves an existing file as it was.
    """
    env = report.envelope(command, parameters, results, residuals)
    report.spill_large_matrices(env, out)
    if out is not None:
        _emit(report.dumps(env), out)
        return
    sys.stdout.flush()
    stream = click.get_binary_stream("stdout")
    report.dump(env, stream)
    stream.flush()


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
    # run of consecutive lambda per thread, and no run holds more states than the
    # largest lambda or phases._RUN_STATES, whichever is more, so in_flight is
    # min(threads, number of runs).
    return lambda n, d: (72 + 12 * n) * max(d, phases._RUN_STATES) * in_flight


# Peak above an idle CLI in bytes per d x d entry, measured in process (VmHWM) at two
# sizes each and taken as the slope between them, then given a quarter or more of
# headroom over the largest reading.  phases and gens stream their matrices to
# stdout or to sidecars; with --out, matrices of at most report.INLINE_DIM_LIMIT
# rows stay in the envelope, whose text is held whole, so that case has its own figure.
#   phases  70 streamed: 53.0-54.4 at n = 2 (lambda = 1000 and 1200, 800 and 1200; one
#           cycle, so phi and the one L x L block phase_hermitian builds for it, with its
#           twist and lag gather, set the figure; 36.4 from 600 to 1000), 30.4 at n = 3
#           (30 and 50), 31.8 at n = 4 (14 and 18) and 32.1 at n = 5 (8 and 10), inline
#           and with --out: E, D and C are held as Monomials, E and D rendered from
#           them; phi and polar_decompose's transient C and D are dense.
#           970 held: 566-569 at n = 2 (lambda = 250 and 399; 475-477 from 300 to 399),
#           312-313 at n = 3 (20 and 26).  At n = 2 the peak above an idle CLI over d^2
#           itself reads 500-772 from lambda = 100 to 399, highest at 120 to 175, and
#           the figure covers that reading too.
#   gens    per matrix, for all n^2 - 1 of them.  40 streamed: the matrices are rendered
#           from their Monomial forms a block of rows at a time, and the peak no longer
#           grows with d^2: -0.5 to 0.1 at n = 2 (lambda = 300 and 500) and n = 3 (30
#           and 50), 0.2-0.3 at n = 4 (12 and 16), 0.4 at n = 5 (6 and 8).  210 held:
#           99 at n = 3 (lambda = 20 and 26), 101 at n = 4 (8 and 11), 104 at n = 5 (5
#           and 7)
def _report_entry(streamed: float, held: float, out: Path | None) -> Callable[[int, int], int]:
    """Bytes per d x d entry of a matrix report: held when --out keeps its matrices inline."""
    return lambda n, d: int(
        (held if out is not None and d <= report.INLINE_DIM_LIMIT else streamed) * d * d
    )


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


def _existing_parent(ctx: click.Context, param: click.Parameter, out: Path | None) -> Path | None:
    if out is not None and not out.parent.is_dir():
        raise click.BadParameter(f"directory '{out.parent}' does not exist", ctx, param)
    return out


#: The --out of every command: a file, not a directory, in a directory that exists,
#: refused with a usage error before anything is computed.
_out_option = click.option(
    "--out",
    type=click.Path(path_type=Path, dir_okay=False),
    default=None,
    callback=_existing_parent,
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
@_out_option
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
@_out_option
def cmd_gens(n: int, lam: int, out: Path | None) -> None:
    """Emit ladder and Cartan matrices plus the commutation residual."""
    matrices = n * n - 1
    try:
        _refuse_unfit(n, lam, _report_entry(40 * matrices, 210 * matrices, out))
        basis = bs.enumerate_basis(n, lam)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    gens = build_generators(basis)
    residuals = {"commutation": commutation_residual(gens)}
    results = {"dimension": len(basis)}
    results |= {f"C_{i}{j}": gens.ladder(i, j) for i, j in gens.roots}
    results |= {f"h_{k}": gens.cartan(k) for k in range(1, n)}
    _emit_report("gens", {"n": n, "lambda": lam}, results, out, residuals)
    if not all(value <= 1e-10 for value in residuals.values()):
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
@_out_option
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
        _refuse_unfit(n, lam, _report_entry(70, 970, out))
        basis = bs.enumerate_basis(n, lam)
        factors = phases.polar_decompose(
            basis, root_pair, convention, beta if beta is not None else gamma
        )
    except ValueError as exc:
        raise click.UsageError(str(exc))

    residuals = {
        "unitarity": phases.unitarity_residual(factors.monomial),
        "polar_identity": phases.polar_identity_residual(factors),
    }
    results = {
        "dimension": len(basis),
        "E": factors.monomial,
        "D": factors.modulus,
        "phi": phases.phase_hermitian(factors.monomial),
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
        results,
        out,
        residuals,
    )
    if not all(value <= 1e-10 for value in residuals.values()):
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
@_out_option
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
    if not roots and n < 3:
        raise click.UsageError(
            f"the default root pair (1,2),(3,1) needs n >= 3, got n = {n}: give --root twice"
        )
    root_a, root_b = (
        (_parse_root(roots[0]), _parse_root(roots[1])) if roots else ((1, 2), (3, 1))
    )
    try:
        bs.check_root(n, root_a)
        bs.check_root(n, root_b)
        # the runs come from the top down: counting up to threads of them stays cheap
        runs = phases._sweep_runs(n, lam_min, lam_max)
        _refuse_unfit(n, lam_max, _sweep_bytes(len(list(itertools.islice(runs, threads)))))
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
@_out_option
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
@_out_option
def cmd_gamma(spin: float | None, lam: int | None, out: Path | None) -> None:
    """Coherent-state realization diagnostics for su(2) (--j) or su(3) (--lambda)."""
    if (spin is None) == (lam is None):
        raise click.UsageError("give exactly one of --j or --lambda")
    if spin is not None:
        try:
            # refuses 2j > 2053 before anything is built; the rest holds O(d), under 1 MB
            diagonal = coherent.intertwiner_diagonal(spin)
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
                "phase_part_vs_shift": coherent._phase_part_defect(g),
            },
        )
    else:
        try:
            # the peak above an idle CLI (VmHWM, in process) rises 2.84-2.88 KB per state
            # from lambda = 60 to 200 and reads 2.96 KB per state at 60: a quarter of headroom
            _refuse_unfit(3, lam, lambda n, d: 3700 * d)
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
@_out_option
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
