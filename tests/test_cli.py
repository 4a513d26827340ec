import json
import math
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from sunphases import basis as bs
from sunphases import cli, coherent, phases
from sunphases.cli import main


@pytest.fixture
def runner():
    return CliRunner()


def payload(result):
    data = json.loads(result.output)
    data.pop("timestamp", None)
    return data


def test_cli_import_loads_no_scipy():
    # numpy and click are the runtime dependencies; scipy is for the tests only
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        f"import sys; sys.path.insert(0, {str(src)!r}); import sunphases.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"


class TestBasis:
    def test_fundamental_su3(self, runner):
        result = runner.invoke(main, ["basis", "--n", "3", "--lambda", "1"])
        assert result.exit_code == 0
        data = payload(result)
        assert data["results"]["dimension"] == 3
        states = data["results"]["states"]
        assert states[0] == {"index": 0, "occupations": [1, 0, 0], "weight": [1, 0]}
        assert states[1]["weight"] == [-1, 1]
        assert states[2]["weight"] == [0, -1]

    def test_csv_output(self, runner):
        result = runner.invoke(
            main, ["basis", "--n", "3", "--lambda", "1", "--format", "csv"]
        )
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()
        assert lines[0].split(",")[0] == "index"
        assert len(lines) == 4

    def test_bad_mode_count_is_usage_error(self, runner):
        result = runner.invoke(main, ["basis", "--n", "1", "--lambda", "2"])
        assert result.exit_code == 2

    def test_out_file(self, runner, tmp_path):
        target = tmp_path / "basis.json"
        result = runner.invoke(
            main, ["basis", "--n", "3", "--lambda", "2", "--out", str(target)]
        )
        assert result.exit_code == 0
        data = json.loads(target.read_text())
        assert data["results"]["dimension"] == 6


class TestGens:
    def test_residual_reported(self, runner):
        result = runner.invoke(main, ["gens", "--n", "3", "--lambda", "2"])
        assert result.exit_code == 0
        data = payload(result)
        assert data["residuals"]["commutation"] < 1e-12
        assert "C_12" in data["results"]
        # real matrices serialized as [re, im] pairs
        entry = data["results"]["C_12"][0][1]
        assert entry == [pytest.approx(math.sqrt(2)), 0.0]

    @pytest.mark.parametrize("value", [math.nan, 1.0])
    def test_a_breached_residual_exits_3(self, runner, monkeypatch, value):
        monkeypatch.setattr(cli, "commutation_residual", lambda gens: value)
        result = runner.invoke(main, ["gens", "--n", "2", "--lambda", "2"])
        assert result.exit_code == cli.EXIT_RESIDUAL_BREACH == 3


class TestPhases:
    def test_paper_sign_fundamental(self, runner):
        result = runner.invoke(
            main,
            ["phases", "--n", "3", "--lambda", "1", "--root", "1,2",
             "--convention", "paper-sign"],
        )
        assert result.exit_code == 0
        data = payload(result)
        e = data["results"]["E"]
        assert e[0][1] == [1.0, 0.0]
        assert e[1][0] == [-1.0, 0.0]
        assert e[2][2] == [1.0, 0.0]
        assert data["residuals"]["unitarity"] < 1e-12

    def test_trivial_irrep(self, runner):
        result = runner.invoke(main, ["phases", "--n", "3", "--lambda", "0"])
        assert result.exit_code == 0
        data = payload(result)
        assert data["results"]["E"] == [[[1.0, 0.0]]]
        assert data["results"]["D"] == [[[0.0, 0.0]]]

    def test_complementary_omega_matrix(self, runner):
        beta = 2 * math.pi / 3
        result = runner.invoke(
            main,
            ["phases", "--n", "3", "--lambda", "1", "--root", "1,2",
             "--convention", "complementary", "--beta", str(beta)],
        )
        assert result.exit_code == 0
        e = payload(result)["results"]["E"]
        assert e[0][1] == [1.0, 0.0]
        re, im = e[1][2]
        assert re == pytest.approx(math.cos(beta))
        assert im == pytest.approx(math.sin(beta))

    def test_complementary_names_the_root(self, runner):
        result = runner.invoke(
            main,
            ["phases", "--n", "3", "--lambda", "1", "--root", "1,3",
             "--convention", "complementary"],
        )
        assert result.exit_code == 2
        assert "covers roots 1,2 and 2,3 only, got 1,3" in result.output

    def test_complementary_needs_fundamental(self, runner):
        result = runner.invoke(
            main,
            ["phases", "--n", "3", "--lambda", "2", "--convention", "complementary"],
        )
        assert result.exit_code == 2

    @pytest.mark.parametrize(
        "args",
        [
            ["--root", "2,3", "--convention", "complementary", "--beta", "1.0"],
            ["--root", "1,2", "--convention", "complementary", "--gamma", "1.0"],
            ["--root", "1,2", "--beta", "2.0"],
            ["--root", "2,3", "--convention", "paper-sign", "--gamma", "0.5"],
        ],
    )
    def test_unused_angle_is_usage_error(self, runner, args):
        result = runner.invoke(main, ["phases", "--n", "3", "--lambda", "1", *args])
        assert result.exit_code == 2

    @pytest.mark.parametrize("flag, root", [("--beta", "1,2"), ("--gamma", "2,3")])
    @pytest.mark.parametrize("angle", ["nan", "inf", "-inf"])
    def test_non_finite_angle_is_usage_error(self, runner, flag, root, angle):
        result = runner.invoke(
            main,
            ["phases", "--n", "3", "--lambda", "1", "--root", root,
             "--convention", "complementary", flag, angle],
        )
        assert result.exit_code == 2
        assert "must be finite" in result.output

    @pytest.mark.parametrize("name", ["unitarity_residual", "polar_identity_residual"])
    @pytest.mark.parametrize("value", [math.nan, 1.0])
    def test_a_breached_residual_exits_3(self, runner, monkeypatch, name, value):
        monkeypatch.setattr(phases, name, lambda factors: value)
        result = runner.invoke(main, ["phases", "--n", "3", "--lambda", "2"])
        assert result.exit_code == cli.EXIT_RESIDUAL_BREACH == 3

    def test_bad_root_string(self, runner):
        result = runner.invoke(
            main, ["phases", "--n", "3", "--lambda", "1", "--root", "banana"]
        )
        assert result.exit_code == 2

    @pytest.mark.parametrize(
        "lam, root, convention, angle",
        [
            (28, "3,1", "paper-sign", None),
            (1, "1,2", "complementary", ("--beta", "2.0")),
            (1, "2,3", "complementary", ("--gamma", "5.5")),
        ],
    )
    def test_polar_identity_is_the_dense_product(
        self, runner, tmp_path, lam, root, convention, angle
    ):
        out = tmp_path / "p.json"
        args = ["phases", "--n", "3", "--lambda", str(lam), "--root", root,
                "--convention", convention, *(angle or ()), "--out", str(out)]
        assert runner.invoke(main, args).exit_code == 0
        factors = phases.polar_decompose(
            bs.enumerate_basis(3, lam), cli._parse_root(root), convention,
            None if angle is None else float(angle[1]),
        )
        c = factors.ladder.dense()
        dense = float(np.max(np.abs(factors.unitary @ factors.positive - c)))
        assert json.loads(out.read_text())["residuals"]["polar_identity"] == dense


class TestSweep:
    def test_su3_formula_column(self, runner):
        result = runner.invoke(
            main, ["sweep", "--n", "3", "--from", "1", "--to", "6"]
        )
        assert result.exit_code == 0
        rows = payload(result)["results"]["rows"]
        assert [r["lambda"] for r in rows] == list(range(1, 7))
        for row in rows:
            assert abs(row["difference"]) < 1e-9
        assert rows[0]["normalized_norm"] == pytest.approx(2.0)

    def test_su4_formula_side_by_side(self, runner):
        result = runner.invoke(
            main, ["sweep", "--n", "4", "--from", "1", "--to", "3"]
        )
        assert result.exit_code == 0
        rows = payload(result)["results"]["rows"]
        assert rows[0]["formula_value"] == pytest.approx(2.25)
        assert rows[0]["normalized_norm"] == pytest.approx(1.5)
        # difference is reported, never forced to zero
        assert abs(rows[0]["difference"]) > 0.5

    def test_csv_format(self, runner):
        result = runner.invoke(
            main, ["sweep", "--n", "3", "--from", "1", "--to", "3",
                   "--format", "csv"]
        )
        assert result.exit_code == 0
        header = result.output.splitlines()[0]
        assert "normalized_norm" in header and "fixed_points" in header

    def test_empty_range_is_usage_error(self, runner):
        result = runner.invoke(
            main, ["sweep", "--n", "3", "--from", "5", "--to", "4"]
        )
        assert result.exit_code == 2

    def test_single_root_is_usage_error(self, runner):
        result = runner.invoke(
            main, ["sweep", "--n", "3", "--from", "1", "--to", "3",
                   "--root", "1,2"]
        )
        assert result.exit_code == 2

    def test_thread_count_does_not_change_payload(self, runner):
        args = ["sweep", "--n", "3", "--from", "1", "--to", "6"]
        serial = payload(runner.invoke(main, args + ["--threads", "1"]))
        parallel = payload(runner.invoke(main, args + ["--threads", "4"]))
        assert serial == parallel

    def test_thread_count_does_not_change_json_text(self, runner):
        args = ["sweep", "--n", "3", "--from", "1", "--to", "6", "--threads"]

        def text(threads):
            lines = runner.invoke(main, args + [threads]).output.splitlines()
            return [line for line in lines if '"timestamp"' not in line]

        assert text("1") == text("4")

    @pytest.mark.parametrize("threads", ["0", "-4"])
    def test_thread_count_below_one_is_usage_error(self, runner, threads):
        result = runner.invoke(
            main, ["sweep", "--n", "3", "--from", "1", "--to", "3", "--threads", threads]
        )
        assert result.exit_code == 2

    def test_commuting_pair_has_null_decay_exponent(self, runner):
        # E_21 is the inverse of E_12: every norm is zero and there is no slope
        def reject(name):
            raise ValueError(f"{name} is not JSON")

        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result = runner.invoke(
                main, ["sweep", "--n", "3", "--from", "1", "--to", "6",
                       "--root", "1,2", "--root", "2,1"]
            )
        assert result.exit_code == 0, result.exception
        data = json.loads(result.output, parse_constant=reject)
        assert data["results"]["decay_exponent"] is None
        assert all(row["raw_norm"] == 0.0 for row in data["results"]["rows"])


class TestPauli:
    def test_solutions_listed(self, runner):
        result = runner.invoke(main, ["pauli"])
        assert result.exit_code == 0
        data = payload(result)
        assert data["residuals"]["exchange_relations"] < 1e-12
        sols = data["results"]["additive_solutions"]
        assert len(sols) == 3
        assert sum(s["simplest_nontrivial"] for s in sols) == 1


class TestGamma:
    def test_su2_diagnostics(self, runner):
        result = runner.invoke(main, ["gamma", "--j", "1.5"])
        assert result.exit_code == 0
        data = payload(result)
        assert data["results"]["witness"] == pytest.approx(2.0)
        assert data["residuals"]["phase_part_vs_shift"] == 0.0

    def test_su3_diagnostics(self, runner):
        result = runner.invoke(main, ["gamma", "--lambda", "3"])
        assert result.exit_code == 0
        data = payload(result)
        assert data["results"]["dimension"] == 10
        assert data["residuals"]["commutation"] < 1e-12

    def test_infinite_spin_is_usage_error(self, runner):
        assert runner.invoke(main, ["gamma", "--j", "inf"]).exit_code == 2

    @pytest.mark.parametrize("spin", ["inf", "-inf", "nan"])
    def test_non_finite_spin_is_usage_error(self, runner, spin):
        result = runner.invoke(main, ["gamma", "--j", spin])
        assert result.exit_code == 2
        assert "finite" in result.output

    @pytest.mark.parametrize("spin", ["1e308", "9e307", "-1e308"])
    def test_a_spin_whose_double_overflows_is_usage_error(self, runner, spin):
        # 2j is inf, which round() cannot take
        result = runner.invoke(main, ["gamma", "--j", spin])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "2j must be finite" in result.output

    def test_spin_past_the_float_range_is_usage_error(self, runner, monkeypatch):
        # 2j = 2054 overflows the intertwiner; it is refused before any matrix is built
        def built(j):
            raise AssertionError("gamma --j built its matrices")

        monkeypatch.setattr(cli.coherent, "gamma_su2", built)
        result = runner.invoke(main, ["gamma", "--j", "1027"])
        assert result.exit_code == 2
        assert "overflows a float" in result.output

    def test_requires_exactly_one_selector(self, runner):
        assert runner.invoke(main, ["gamma"]).exit_code == 2
        assert (
            runner.invoke(main, ["gamma", "--j", "1", "--lambda", "1"]).exit_code == 2
        )


#: One small call of each command, all of which take --out.
OUT_COMMANDS = [
    ["basis", "--n", "2", "--lambda", "2"],
    ["gens", "--n", "2", "--lambda", "2"],
    ["phases", "--n", "3", "--lambda", "28"],
    ["sweep", "--n", "3", "--from", "1", "--to", "3"],
    ["pauli"],
    ["gamma", "--j", "1"],
    ["verify"],
]


class TestOut:
    """An --out that cannot be a file is a usage error before anything is computed."""

    @pytest.fixture(autouse=True)
    def nothing_is_computed(self, monkeypatch):
        def computed(*args, **kwargs):
            raise AssertionError("the command ran before --out was checked")

        for module, name in [
            (cli.bs, "enumerate_basis"),
            (cli.phases, "sweep"),
            (cli.pauli, "pauli_generators"),
            (cli.coherent, "intertwiner_diagonal"),
            (cli.verify, "run_suite"),
        ]:
            monkeypatch.setattr(module, name, computed)

    @pytest.mark.parametrize("args", OUT_COMMANDS, ids=lambda args: args[0])
    def test_a_missing_directory_is_usage_error(self, runner, tmp_path, args):
        result = runner.invoke(main, [*args, "--out", str(tmp_path / "missing" / "run.json")])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "does not exist" in result.output
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("args", OUT_COMMANDS, ids=lambda args: args[0])
    def test_a_directory_is_usage_error(self, runner, tmp_path, args):
        result = runner.invoke(main, [*args, "--out", str(tmp_path)])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "is a directory" in result.output
        assert list(tmp_path.iterdir()) == []


class TestMemoryGuard:
    """With 1 MiB of memory, no matrix command fits an irrep of dimension 401 or
    more, a `sweep` past about 9 700 states (n = 3) does not fit, nor does
    `gamma --lambda` past about 280 states, and neither does a `basis` payload
    past about 590 states (n = 3)."""

    @pytest.fixture(autouse=True)
    def one_mebibyte(self, monkeypatch):
        monkeypatch.setattr(cli, "_physical_memory", lambda: 2**20)

    @pytest.mark.parametrize(
        "args",
        [
            ["phases", "--n", "3", "--lambda", "40"],
            ["gens", "--n", "3", "--lambda", "40"],
            ["sweep", "--n", "3", "--from", "1", "--to", "200"],
            ["gens", "--n", "2", "--lambda", "400"],
            ["gamma", "--lambda", "40"],
            ["basis", "--n", "3", "--lambda", "40"],
            ["basis", "--n", "6", "--lambda", "10", "--format", "csv"],
        ],
    )
    def test_unfit_irrep_is_usage_error(self, runner, args):
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert "physical memory" in result.output

    def test_small_irrep_still_runs(self, runner):
        assert runner.invoke(main, ["phases", "--n", "3", "--lambda", "1"]).exit_code == 0

    def test_small_basis_still_runs(self, runner):
        assert runner.invoke(main, ["basis", "--n", "3", "--lambda", "1"]).exit_code == 0


class TestMatrixCommandCost:
    """Every matrix command holds more than the two d x d complex matrices (32 bytes
    per entry) once assumed: with 64 bytes per entry of d = 66 it refuses d = 66,
    with or without --out, and still runs d = 3."""

    @pytest.fixture(autouse=True)
    def sixty_four_bytes_per_entry(self, monkeypatch):
        monkeypatch.setattr(cli, "_physical_memory", lambda: 64 * 66**2)

    @pytest.mark.parametrize("out", [False, True])
    @pytest.mark.parametrize(
        "unfit, fit",
        [
            (["phases", "--n", "3", "--lambda", "10"], ["phases", "--n", "3", "--lambda", "1"]),
            (["gens", "--n", "3", "--lambda", "10"], ["gens", "--n", "3", "--lambda", "1"]),
            (["gens", "--n", "2", "--lambda", "65"], ["gens", "--n", "2", "--lambda", "2"]),
        ],
    )
    def test_measured_cost_is_refused(self, runner, tmp_path, unfit, fit, out):
        extra = ["--out", str(tmp_path / "run.json")] if out else []
        result = runner.invoke(main, unfit + extra)
        assert result.exit_code == 2
        assert "physical memory" in result.output
        assert runner.invoke(main, fit + extra).exit_code == 0


class TestSweepStateCost:
    """`sweep` holds no d x d array: it needs (72 + 12 n) bytes per state of its
    largest lambda for each run in flight, and no run holds more states than that
    lambda.  Given exactly that much memory for one run, it runs that lambda and
    refuses the next one, or two runs at once."""

    @pytest.fixture(params=[(3, 100), (4, 30)])
    def irrep(self, request, monkeypatch):
        n, lam = request.param
        need = (72 + 12 * n) * math.comb(lam + n - 1, n - 1)
        monkeypatch.setattr(cli, "_physical_memory", lambda: need)
        return n, lam

    @staticmethod
    def sweep(runner, n, lam_min, lam_max, threads):
        args = ["sweep", "--n", str(n), "--from", str(lam_min), "--to", str(lam_max)]
        return runner.invoke(main, args + ["--threads", str(threads)])

    def test_runs_at_the_measured_cost(self, runner, irrep):
        n, lam = irrep
        assert self.sweep(runner, n, lam - 1, lam, 1).exit_code == 0
        assert self.sweep(runner, n, lam, lam, 2).exit_code == 0

    @pytest.mark.parametrize("threads", [1, 2])
    def test_refuses_one_lambda_more(self, runner, irrep, threads):
        n, lam = irrep
        result = self.sweep(runner, n, lam + 1, lam + 1, threads)
        assert result.exit_code == 2
        assert "physical memory" in result.output

    def test_two_threads_hold_two_lambdas(self, runner, irrep):
        n, lam = irrep
        result = self.sweep(runner, n, lam - 1, lam, 2)
        assert result.exit_code == 2
        assert "physical memory" in result.output


class TestGammaStateCost:
    """`gamma --lambda` holds no d x d array: it needs 3700 bytes per state.  Given
    exactly that much memory for one lambda, it runs that lambda and refuses the
    next one, with or without --out."""

    @pytest.fixture(params=[10, 60])
    def lam(self, request, monkeypatch):
        need = 3700 * math.comb(request.param + 2, 2)
        monkeypatch.setattr(cli, "_physical_memory", lambda: need)
        return request.param

    @pytest.fixture(params=[False, True])
    def extra(self, request, tmp_path):
        return ["--out", str(tmp_path / "run.json")] if request.param else []

    def test_runs_at_the_measured_cost(self, runner, lam, extra):
        assert runner.invoke(main, ["gamma", "--lambda", str(lam)] + extra).exit_code == 0

    def test_refuses_one_lambda_more(self, runner, lam, extra):
        result = runner.invoke(main, ["gamma", "--lambda", str(lam + 1)] + extra)
        assert result.exit_code == 2
        assert "physical memory" in result.output


class TestVerify:
    def test_pauli_suite_passes(self, runner):
        result = runner.invoke(main, ["verify", "--suite", "pauli"])
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()
        assert lines and all(line.startswith("PASS") for line in lines)

    def test_all_suites_pass(self, runner):
        result = runner.invoke(main, ["verify", "--suite", "all"])
        assert result.exit_code == 0
        assert "FAIL" not in result.output

    def test_unknown_suite(self, runner):
        assert runner.invoke(main, ["verify", "--suite", "nope"]).exit_code == 2

    @pytest.mark.parametrize(
        "module, name, at, line",
        [
            (
                coherent, "hermitize_check", 1.0,
                "FAIL [gamma] intertwiner hermitizes, j <= 15: residual nan (tol 1e-09)",
            ),
            (
                phases, "d_identity_residual", 3,
                "FAIL [su3] squared-D Cartan identities, lam <= 8: residual nan (tol 1e-12)",
            ),
        ],
        ids=["gamma", "su3"],
    )
    def test_a_nan_residual_fails_its_check(self, runner, monkeypatch, module, name, at, line):
        # one NaN among finite residuals, neither first nor last
        honest = getattr(module, name)
        monkeypatch.setattr(module, name, lambda x: math.nan if x == at else honest(x))
        result = runner.invoke(main, ["verify", "--suite", "all"])
        assert result.exit_code == cli.EXIT_VERIFY_FAILED
        failed = [row for row in result.output.splitlines() if not row.startswith("PASS ")]
        assert failed == [line]


class TestDeterminism:
    @pytest.mark.parametrize(
        "args",
        [
            ["basis", "--n", "3", "--lambda", "4"],
            ["phases", "--n", "3", "--lambda", "3", "--root", "3,1"],
            ["sweep", "--n", "3", "--from", "1", "--to", "5"],
            ["pauli"],
            ["gamma", "--j", "2"],
        ],
    )
    def test_repeat_runs_identical(self, runner, args):
        first = payload(runner.invoke(main, args))
        second = payload(runner.invoke(main, args))
        assert first == second
