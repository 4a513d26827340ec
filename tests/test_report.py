import json
from fractions import Fraction

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


def test_dumps_converts_payload_types_like_a_hand_conversion():
    mat = np.array(
        [[complex(-0.0, 0.0), complex(1.0, -2.0)], [complex(0.0, 0.5), complex(-0.0, -0.0)]]
    )
    pairs = [[[-0.0, 0.0], [1.0, -2.0]], [[0.0, 0.5], [-0.0, -0.0]]]
    transposed = [[pairs[0][0], pairs[1][0]], [pairs[0][1], pairs[1][1]]]
    env = report.envelope(
        "test",
        {"count": np.int64(5)},
        {"M": mat, "MT": mat.T, "ratio": Fraction(3, 7), "z": complex(1.5, -0.25)},
    )
    by_hand = dict(
        env,
        parameters={"count": 5},
        results={
            "M": pairs,
            "MT": transposed,
            "ratio": {"numerator": 3, "denominator": 7},
            "z": [1.5, -0.25],
        },
    )
    text = report.dumps(env)
    assert text == report.dumps(by_hand)
    assert "-0.0" in text


def test_dumps_rejects_unknown_types():
    with pytest.raises(TypeError):
        report.dumps({"x": {1, 2}})


def test_csv_cells():
    rows = [{"a": None, "b": 0.1, "c": [1, -2], "d": (3, 4), "e": 7}]
    assert report.sweep_csv(rows) == "a,b,c,d,e\n,0.1,1 -2,3 4,7\n"
