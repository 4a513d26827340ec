import json

import numpy as np
import pytest

from sunphases import report

LIMIT = 3


@pytest.fixture(autouse=True)
def small_limit(monkeypatch):
    monkeypatch.setattr(report, "INLINE_DIM_LIMIT", LIMIT)


def matrix(rows):
    return np.arange(rows * rows).reshape(rows, rows) * (1 - 0.5j)


def spill(mat, out):
    env = report.envelope("test", {}, {})
    return report.spill_large_matrices(env, {"E": mat}, out)["results"]["E"]


def test_matrix_at_the_limit_stays_inline(tmp_path):
    assert spill(matrix(LIMIT), tmp_path / "run.json") == report.matrix_payload(matrix(LIMIT))
    assert list(tmp_path.iterdir()) == []


def test_matrix_above_the_limit_goes_to_a_sidecar(tmp_path):
    mat = matrix(LIMIT + 1)
    assert spill(mat, tmp_path / "run.json") == {"file": "run.E.json", "dimension": LIMIT + 1}
    pairs = np.array(json.loads((tmp_path / "run.E.json").read_text())["matrix"])
    assert np.array_equal(pairs[..., 0] + 1j * pairs[..., 1], mat)


def test_without_out_everything_is_inline():
    assert spill(matrix(LIMIT + 1), None) == report.matrix_payload(matrix(LIMIT + 1))
