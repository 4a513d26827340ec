"""Machine-readable report envelopes for the CLI.

This module alone knows the payload format: commands hand over plain Python
values and numpy arrays, and it converts, spills and serializes them.
Payloads are deterministic: keys sorted, complex entries as [re, im] pairs,
floats serialized by repr (lossless round-trip), no locale formatting.  The
timestamp is the only field allowed to differ between identical runs.
Matrices stay numpy arrays until `dumps` renders each one once, with
`matrix_payload` at its slot's indentation, to the exact text
json.dumps(..., indent=2) would give its nested lists.
Matrices above the inline threshold are written to sidecar files referenced
from the envelope so reports stay diffable.
"""

from __future__ import annotations

import datetime
import functools
import json
import re
from fractions import Fraction
from pathlib import Path
from typing import Any

import numpy as np

from . import __version__

#: Matrices with more rows than this are written to sidecar files.
INLINE_DIM_LIMIT = 400

#: Stands in for a matrix while json.dumps writes the envelope.  No string
#: decoded from argv or UTF-8 holds a lone high surrogate; `dumps` refuses a
#: payload string that equals the slot.
_SLOT = "\ud800matrix\ud800"


@functools.cache
def _separators(ndim: int, pad: str) -> tuple[tuple[str, ...], str]:
    """Text json writes around the leaves of an ndim-deep list at pad, read off a 2 x ... x 2 one.

    Entry t is the text where the t innermost lists restart, entry ndim the
    text before the first leaf; the string is the text after the last leaf.
    """
    template = np.arange(2**ndim).reshape((2,) * ndim).tolist()
    pieces = re.split(r"\d+", json.dumps(template, indent=2).replace("\n", "\n" + pad))
    return tuple(pieces[2**t] for t in range(ndim)) + (pieces[0],), pieces[-1]


def matrix_payload(mat: np.ndarray, pad: str) -> str:
    """Non-empty complex matrix as nested [re, im] pairs, rendered at indentation pad.

    json spells each distinct bit pattern once (repr, NaN, Infinity or
    -Infinity), and one join puts the leaves between json's separators.
    """
    mat = np.ascontiguousarray(mat, dtype=complex)
    pairs = mat.view(float).reshape(*mat.shape, 2)
    bits, leaf = np.unique(pairs.view(np.uint64).ravel(), return_inverse=True)
    words = np.array(json.dumps(bits.view(float).tolist())[1:-1].split(", "), dtype=object)
    before, tail = _separators(pairs.ndim, pad)
    restarts = np.zeros(pairs.shape, dtype=np.intp)
    for t in range(1, pairs.ndim + 1):
        restarts[(..., *[0] * t)] = t
    parts = np.empty(2 * pairs.size + 1, dtype=object)
    parts[:-1:2] = np.array(before, dtype=object)[restarts.ravel()]
    parts[1::2] = words[leaf]
    parts[-1] = tail
    return "".join(parts.tolist())


def _default(matrices: list[np.ndarray], value: Any) -> Any:
    """json.dumps hook for the payload types json does not know; matrices go to slots."""
    if isinstance(value, np.ndarray):
        if value.size == 0:  # no values, only brackets json writes itself
            return value.tolist()
        matrices.append(value)
        return _SLOT
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


def spill_large_matrices(env: dict[str, Any], out: Path | None) -> dict[str, Any]:
    """Move each result matrix with more than INLINE_DIM_LIMIT rows to a sidecar next to `out`.

    Without an output path everything stays inline.
    """
    for name, value in env["results"].items():
        if out is not None and isinstance(value, np.ndarray) and len(value) > INLINE_DIM_LIMIT:
            side = out.with_name(f"{out.stem}.{name}.json")
            side.write_text(dumps({"matrix": value}))
            env["results"][name] = {"file": side.name, "dimension": len(value)}
    return env


def dumps(payload: dict[str, Any]) -> str:
    """Sorted-key, indent=2 JSON; each matrix is rendered once, at the indentation of its slot."""
    matrices: list[np.ndarray] = []
    hook = functools.partial(_default, matrices)
    pieces = json.dumps(payload, sort_keys=True, indent=2, default=hook).split(json.dumps(_SLOT))
    if len(pieces) != len(matrices) + 1:
        raise ValueError("a payload string equals the matrix slot")
    out = [pieces[0]]
    for before, mat, after in zip(pieces, matrices, pieces[1:]):
        pad = re.match(" *", before[before.rfind("\n") + 1 :]).group()
        out += [matrix_payload(mat, pad), after]
    # json's indenting encoder keeps the hook in a reference cycle of closures that
    # only the cyclic collector frees; emptying the list releases the matrices now.
    matrices.clear()
    return "".join([*out, "\n"])


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
