"""The benchmark's workloads: seeded CLI operations and the checks of their outputs.

An operation is a list of calls of the ``sunphases`` command line.  Each call
carries a check that reads the call's output files and compares them with the
independent oracle (``oracle.py``) or with a property the method must have,
never with a stored copy of earlier output.  A check raises ``Mismatch`` when
the output is wrong and returns True when it shows the known phi-branch fault,
which counts the operation as failed rather than incorrect.

The seed varies each operation among choices of equal cost (root pairs,
conventions, angles), so a cache kept across operations cannot pass for a
gain.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracle

CONVENTIONS = ("plus", "paper-sign")

#: The paper's two norm tables: (n, first lam, last lam).
SWEEP_TABLES = ((3, 1, 30), (4, 2, 12))
#: su(3) lam = 28 has d = 435, just above the CLI's 400-row inline limit.
PHASES_IRREP = (3, 28)


class Mismatch(AssertionError):
    """An output disagrees with the oracle or breaks a required property."""


def require(ok: bool, what: str) -> None:
    if not ok:
        raise Mismatch(what)


@dataclass(frozen=True)
class Call:
    argv: tuple[str, ...]
    #: Reads the call's outputs from the operation directory; True = phi-branch fault.
    check: Callable[[Path], bool]


def _root(root: tuple[int, int]) -> str:
    return f"{root[0]},{root[1]}"


def noncommuting_pairs(n: int) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """Ordered root pairs sharing exactly one mode; their phase operators never commute.

    Pairs sharing no mode or both modes commute, which makes the sweep's
    decay fit take the log of zero.
    """
    roots = list(itertools.permutations(range(1, n + 1), 2))
    return [
        (a, b) for a in roots for b in roots if len(set(a) & set(b)) == 1
    ]


@functools.lru_cache(maxsize=None)
def _irrep(n: int, lam: int) -> oracle.Irrep:
    return oracle.Irrep(n, lam)


@functools.lru_cache(maxsize=None)
def _norm_row(n, lam, root_a, root_b, convention) -> oracle.NormRow:
    return oracle.norm_row(n, lam, root_a, root_b, convention)


def _load(path: Path) -> dict:
    return json.loads(path.read_text())


def _matrix(entry, outdir: Path) -> np.ndarray:
    """Complex matrix from an inline [re, im] payload or a sidecar reference."""
    if isinstance(entry, dict):
        entry = _load(outdir / entry["file"])["matrix"]
    pairs = np.asarray(entry, dtype=float)
    return pairs[..., 0] + 1j * pairs[..., 1]


def _check_phase_matrix(phi: np.ndarray, unitary: np.ndarray, angles: np.ndarray) -> bool:
    """phi Hermitian, exp(i phi) = E, eigenvalues = the oracle's principal angles.

    Returns True when some eigenvalue -1 of E came out as -pi instead of the
    documented +pi (the angles agree once -pi is read as +pi).
    """
    require(np.max(np.abs(phi - phi.conj().T)) <= 1e-12, "phi is not Hermitian")
    w, v = np.linalg.eigh(phi)
    rebuilt = (v * np.exp(1j * w)) @ v.conj().T
    require(np.max(np.abs(rebuilt - unitary)) <= 1e-9, "exp(i phi) != E")
    at_minus_pi = w <= -math.pi + 1e-9
    unwrapped = np.sort(np.where(at_minus_pi, w + 2.0 * math.pi, w))
    require(
        np.max(np.abs(unwrapped - angles)) <= 1e-9,
        "eigenvalues of phi are not the principal angles of E",
    )
    return bool(np.any(at_minus_pi))


# --- sweep -------------------------------------------------------------------


def _sweep_call(n, lo, hi, pair, convention) -> Call:
    name = f"sweep{n}.json"

    def check(outdir: Path) -> bool:
        env = _load(outdir / name)
        rows = env["results"]["rows"]
        require([r["lambda"] for r in rows] == list(range(lo, hi + 1)), "sweep lambdas")
        points = []
        for row in rows:
            ref = _norm_row(n, row["lambda"], pair[0], pair[1], convention)
            got = (row["dimension"], row["raw_norm"], row["fixed_points"])
            want = (ref.dimension, ref.raw_norm, ref.fixed_points)
            require(got == want, f"sweep n={n} lam={row['lambda']}: {got} != {want}")
            require(
                row["normalized_norm"] == ref.normalized_norm,
                f"sweep n={n} lam={row['lambda']}: normalized norm",
            )
            points.append((row["lambda"], ref.normalized_norm))
        slope = oracle.log_log_slope(points)
        got = env["results"]["decay_exponent"]
        require(
            isinstance(got, float) and abs(got - slope) <= 1e-9 * max(1.0, abs(slope)),
            f"sweep n={n}: decay exponent {got} != {slope}",
        )
        return False

    argv = [
        "sweep", "--n", str(n), "--from", str(lo), "--to", str(hi),
        "--root", _root(pair[0]), "--root", _root(pair[1]),
        "--convention", convention, "--out", "{out}/" + name,
    ]
    return Call(tuple(argv), check)


def sweep_op(rng: random.Random) -> list[Call]:
    """Both norm tables, one under each convention, each with a seeded root pair."""
    first = rng.choice(CONVENTIONS)
    conventions = (first, CONVENTIONS[1 - CONVENTIONS.index(first)])
    return [
        _sweep_call(n, lo, hi, rng.choice(noncommuting_pairs(n)), convention)
        for (n, lo, hi), convention in zip(SWEEP_TABLES, conventions)
    ]


# --- phases ------------------------------------------------------------------


def _phases_call(n, lam, root, convention) -> Call:
    def check(outdir: Path) -> bool:
        env = _load(outdir / "phases.json")
        results = env["results"]
        irrep = _irrep(n, lam)
        d = len(irrep)
        require(results["dimension"] == d, "phases dimension")
        for key in ("E", "D", "phi"):
            require(
                isinstance(results[key], dict) and results[key]["dimension"] == d,
                f"{key} was not spilled to a sidecar",
            )
        perm = irrep.completion(*root, convention)
        unitary = _matrix(results["E"], outdir)
        require(np.array_equal(unitary, perm.dense()), "E != oracle signed permutation")
        require(
            np.array_equal(_matrix(results["D"], outdir), irrep.positive(*root)),
            "D != diag(sqrt(n_j (n_i + 1)))",
        )
        phi = _matrix(results["phi"], outdir)
        return _check_phase_matrix(phi, unitary, oracle.signed_permutation_angles(perm))

    argv = [
        "phases", "--n", str(n), "--lambda", str(lam), "--root", _root(root),
        "--convention", convention, "--out", "{out}/phases.json",
    ]
    return Call(tuple(argv), check)


def phases_op(rng: random.Random) -> list[Call]:
    """E, D and phi at one irrep above the inline limit; seeded root and convention."""
    n, lam = PHASES_IRREP
    root = rng.choice(list(itertools.permutations(range(1, n + 1), 2)))
    return [_phases_call(n, lam, root, rng.choice(CONVENTIONS))]


# --- checks ------------------------------------------------------------------

VERIFY_LINES = 20
GAMMA_SPINS = (5.0, 5.5)
GAMMA_LAMBDA = 4
BASIS_IRREP = (3, 6)
GENS_IRREP = (3, 4)


def _verify_call() -> Call:
    def check(outdir: Path) -> bool:
        lines = (outdir / "verify.txt").read_text().splitlines()
        require(len(lines) == VERIFY_LINES, f"verify printed {len(lines)} lines")
        failing = [line for line in lines if not line.startswith("PASS ")]
        require(not failing, f"verify: {failing}")
        return False

    return Call(("verify", "--suite", "all", "--out", "{out}/verify.txt"), check)


def _pauli_call() -> Call:
    def check(outdir: Path) -> bool:
        results = _load(outdir / "pauli.json")["results"]
        x = _matrix(results["X"], outdir)
        z = _matrix(results["Z"], outdir)
        w = complex(math.cos(2 * math.pi / 3), math.sin(2 * math.pi / 3))
        eye = np.eye(3)
        require(np.allclose(z, oracle.clock(3), atol=1e-15), "Z is not the clock matrix")
        require(
            np.max(np.abs(np.linalg.matrix_power(x, 3) - eye)) <= 1e-12
            and np.max(np.abs(x @ z - w * z @ x)) <= 1e-12,
            "X, Z break X^3 = 1 or X Z = w Z X",
        )
        turns = sorted(
            (round(s["beta"] / (2 * math.pi / 3)), round(s["gamma"] / (2 * math.pi / 3)))
            for s in results["additive_solutions"]
        )
        # the three lattice points with gamma = -beta (mod 2 pi)
        require(turns == [(0, 0), (1, 2), (2, 1)], f"additive solutions {turns}")
        simplest = [s for s in results["additive_solutions"] if s["simplest_nontrivial"]]
        require(
            len(simplest) == 1
            and round(simplest[0]["beta"] / (2 * math.pi / 3)) == 1,
            "simplest nontrivial solution is not beta = 2 pi / 3",
        )
        return False

    return Call(("pauli", "--out", "{out}/pauli.json"), check)


def _gamma_spin_call(spin: float) -> Call:
    def check(outdir: Path) -> bool:
        env = _load(outdir / "gamma_j.json")
        results = env["results"]
        require(results["witness"] == 2 * spin - 1, f"witness {results['witness']} != 2j-1")
        two_j = round(2 * spin)
        want = [math.sqrt(math.comb(two_j, p)) for p in range(two_j + 1)]
        got = results["intertwiner_diagonal"]
        require(
            len(got) == len(want)
            and all(abs(a - b) <= 1e-12 * b for a, b in zip(got, want)),
            "intertwiner diagonal != sqrt(binomial)",
        )
        require(max(env["residuals"].values()) <= 1e-9, "gamma --j residuals")
        return False

    return Call(("gamma", "--j", repr(spin), "--out", "{out}/gamma_j.json"), check)


def _gamma_lambda_call(lam: int) -> Call:
    def check(outdir: Path) -> bool:
        env = _load(outdir / "gamma_lambda.json")
        require(env["results"]["dimension"] == len(_irrep(3, lam)), "gamma --lambda dimension")
        require(env["residuals"]["commutation"] <= 1e-12, "coherent su(3) relations")
        return False

    return Call(
        ("gamma", "--lambda", str(lam), "--out", "{out}/gamma_lambda.json"), check
    )


def _basis_call(n: int, lam: int) -> Call:
    def check(outdir: Path) -> bool:
        results = _load(outdir / "basis.json")["results"]
        irrep = _irrep(n, lam)
        require(results["dimension"] == len(irrep), "basis dimension")
        got = [(s["index"], tuple(s["occupations"]), s["weight"]) for s in results["states"]]
        want = list(zip(range(len(irrep)), irrep.states, irrep.weights()))
        require(got == want, "basis states or weights differ from the occupation order")
        return False

    return Call(
        ("basis", "--n", str(n), "--lambda", str(lam), "--out", "{out}/basis.json"), check
    )


def _gens_call(n: int, lam: int) -> Call:
    def check(outdir: Path) -> bool:
        env = _load(outdir / "gens.json")
        results = env["results"]
        irrep = _irrep(n, lam)
        for i, j in itertools.permutations(range(1, n + 1), 2):
            require(
                np.array_equal(_matrix(results[f"C_{i}{j}"], outdir), irrep.ladder(i, j)),
                f"C_{i}{j} != sqrt(n_j (n_i + 1)) occupation formula",
            )
        weights = np.asarray(irrep.weights())
        for k in range(n - 1):
            require(
                np.array_equal(_matrix(results[f"h_{k + 1}"], outdir), np.diag(weights[:, k])),
                f"h_{k + 1} != diag of weights",
            )
        require(env["residuals"]["commutation"] <= 1e-12, "gens commutation residual")
        return False

    return Call(
        ("gens", "--n", str(n), "--lambda", str(lam), "--out", "{out}/gens.json"), check
    )


def _complementary_call(root: tuple[int, int], angle: float) -> Call:
    def check(outdir: Path) -> bool:
        results = _load(outdir / "complementary.json")["results"]
        unitary = _matrix(results["E"], outdir)
        want = oracle.complementary(root, angle)
        require(np.max(np.abs(unitary - want)) <= 1e-15, "complementary E != oracle")
        require(
            np.array_equal(_matrix(results["D"], outdir), _irrep(3, 1).positive(*root)),
            "complementary D != diag(sqrt(n_j (n_i + 1)))",
        )
        z = oracle.clock(3)
        w2 = complex(math.cos(4 * math.pi / 3), math.sin(4 * math.pi / 3))
        require(
            np.max(np.abs(z @ unitary - w2 * unitary @ z)) <= 1e-12,
            "complementarity Z E = w^2 E Z",
        )
        phi = _matrix(results["phi"], outdir)
        return _check_phase_matrix(phi, unitary, oracle.complementary_angles())

    flag = "--beta" if tuple(root) == (1, 2) else "--gamma"
    argv = (
        "phases", "--n", "3", "--lambda", "1", "--root", _root(root),
        "--convention", "complementary", flag, repr(angle),
        "--out", "{out}/complementary.json",
    )
    return Call(argv, check)


def checks_op(rng: random.Random) -> list[Call]:
    """verify --suite all plus one call of every other command at small d."""
    return [
        _verify_call(),
        _pauli_call(),
        _gamma_spin_call(rng.choice(GAMMA_SPINS)),
        _gamma_lambda_call(GAMMA_LAMBDA),
        _basis_call(*BASIS_IRREP),
        _gens_call(*GENS_IRREP),
        _complementary_call(rng.choice([(1, 2), (2, 3)]), rng.uniform(0.0, 2 * math.pi)),
    ]


WORKLOADS = {"sweep": sweep_op, "phases": phases_op, "checks": checks_op}

#: Spans each workload must fire: the layers whose time it is meant to expose.
SPANS = {
    "sweep": (
        "phases.group_commutator",
        "phases.noncommutativity_norm",
        "phases.su2_invariant_completion",
        "basis.su2_strings",
        "basis.enumerate_basis",
        "report.dumps",
    ),
    "phases": (
        "report.dumps",
        "report.matrix_payload",
        "report.spill_large_matrices",
        "phases.phase_hermitian",
        "phases.positive_factor",
        "phases.polar_decompose",
        "phases.unitarity_residual",
        "generators.generator_matrix",
        "basis.enumerate_basis",
    ),
    "checks": (
        "verify.suite_su2",
        "verify.suite_su3",
        "verify.suite_su4",
        "verify.suite_pauli",
        "verify.suite_gamma",
        "generators.commutation_residual",
        "coherent.gamma_su3_commutation_residual",
        "pauli.pauli_generators",
        "coherent.gamma_su2",
        "phases.noncommutativity_norm",
        "phases.group_commutator",
    ),
}
