"""Machine-readable report envelopes for the CLI.

This module alone knows the payload format: commands hand over plain Python
values and numpy arrays, and it converts, spills and serializes them.
Payloads are deterministic: keys sorted, complex entries as [re, im] pairs,
floats serialized by repr (lossless round-trip), no locale formatting.  The
timestamp is the only field allowed to differ between identical runs.
Matrices above the inline threshold are written to sidecar files referenced
from the envelope so reports stay diffable.
"""

from __future__ import annotations

import datetime
import json
from fractions import Fraction
from pathlib import Path
from typing import Any

import numpy as np

from . import __version__

#: Matrices with more rows than this are written to sidecar files.
INLINE_DIM_LIMIT = 400


def matrix_payload(mat: np.ndarray) -> list[list[list[float]]]:
    """Dense complex matrix as nested [re, im] pairs."""
    mat = np.ascontiguousarray(mat, dtype=complex)
    return mat.view(float).reshape(*mat.shape, 2).tolist()


def _default(value: Any) -> Any:
    """json.dumps hook for the payload types json does not know."""
    if isinstance(value, np.ndarray):
        return matrix_payload(value)
    if isinstance(value, Fraction):
        return {"numerator": value.numerator, "denominator": value.denominator}
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, np.integer):
        return int(value)
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def envelope(
    command: str,
    parameters: dict[str, Any],
    results: dict[str, Any],
    residuals: dict[str, float] | None = None,
) -> dict[str, Any]:
    return {
        "command": command,
        "parameters": parameters,
        "results": results,
        "residuals": residuals or {},
        "version": __version__,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }


def spill_large_matrices(
    env: dict[str, Any], matrices: dict[str, np.ndarray], out: Path | None
) -> dict[str, Any]:
    """Attach matrices to the envelope, spilling big ones next to `out`.

    Without an output path everything is inlined.
    """
    for name, mat in matrices.items():
        if out is not None and mat.shape[0] > INLINE_DIM_LIMIT:
            side = out.with_name(f"{out.stem}.{name}.json")
            side.write_text(dumps({"matrix": matrix_payload(mat)}))
            env["results"][name] = {"file": side.name, "dimension": mat.shape[0]}
        else:
            env["results"][name] = matrix_payload(mat)
    return env


def dumps(payload: dict[str, Any]) -> str:
    return json.dumps(payload, sort_keys=True, indent=2, default=_default) + "\n"


def _csv_cell(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return " ".join(map(str, value))
    return str(value)


def sweep_csv(rows: list[dict[str, Any]]) -> str:
    """Plot-ready CSV for sweep and basis tables; header then one line per row."""
    if not rows:
        return ""
    fields = list(rows[0])
    lines = [",".join(fields)]
    for row in rows:
        lines.append(",".join(_csv_cell(row[f]) for f in fields))
    return "\n".join(lines) + "\n"
