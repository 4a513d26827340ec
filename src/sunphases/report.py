"""Machine-readable report envelopes for the CLI.

This module alone knows the payload format: commands hand over plain Python
values, numpy arrays and `generators.Monomial`s, and it converts, spills and
serializes them; a `Monomial` is written as its dense matrix, scattered one
block of rows at a time, so no command holds that matrix whole.
Payloads are deterministic: keys sorted, complex entries as [re, im] pairs,
floats serialized by repr (lossless round-trip), no locale formatting.  The
timestamp is the only field allowed to differ between identical runs.
A payload is rendered as a stream of ASCII byte pieces, in order: the
envelope text json.dumps(..., indent=2) gives between the matrices, and each
matrix block by block, rendered by `matrix_payload` at its slot's
indentation to the exact text json would give its nested lists.  `dump`
writes the pieces to a binary stream as they come, so neither a matrix's
nor the payload's full text is ever held; `dumps` joins the same pieces.
The renderer spells only the nonzero pairs and the pairs that open a row,
each distinct bit pattern once per matrix, and each run of zero pairs
between them is a slice of one row of zero pairs, made once per distinct
length in a block, so its work scales with nonzeros plus rows (a
`Monomial`'s scatter adds the zeros of each block) and its memory with one
block plus the matrix's distinct values.  Matrices above the inline
threshold are streamed to sidecar files referenced from the envelope so
reports stay diffable.
"""

from __future__ import annotations

import datetime
import functools
import json
import math
import re
from fractions import Fraction
from pathlib import Path
from typing import Any, BinaryIO, Iterator

import numpy as np

from . import __version__
from .generators import Monomial

#: Matrices with more rows than this are written to sidecar files.
INLINE_DIM_LIMIT = 400

#: Stands in for a matrix while json.dumps writes the envelope.  No string
#: decoded from argv or UTF-8 holds a lone high surrogate; `dumps` refuses a
#: payload string that equals the slot.
_SLOT = "\ud800matrix\ud800"

#: Pairs `matrix_payload` reads at a time, in whole rows (at least one), so its
#: temporaries stay bounded as d grows.
_BLOCK = 32768


@functools.cache
def _separators(ndim: int, pad: str) -> tuple[tuple[bytes, ...], bytes]:
    """Text json writes around the leaves of an ndim-deep list at pad, read off a 2 x ... x 2 one.

    Entry t is the text where the t innermost lists restart, entry ndim the
    text before the first leaf; the last item is the text after the last leaf.
    """
    template = np.arange(2**ndim).reshape((2,) * ndim).tolist()
    text = json.dumps(template, indent=2).replace("\n", "\n" + pad).encode()
    pieces = re.split(rb"\d+", text)
    return tuple(pieces[2**t] for t in range(ndim)) + (pieces[0],), pieces[-1]


def _blocks(
    mat: np.ndarray | Monomial,
) -> tuple[tuple[int, ...], Iterator[tuple[int, np.ndarray]]]:
    """The shape of mat and its complex blocks of whole leading-axis rows, each at its flat offset.

    A block holds as many rows as fit in _BLOCK pairs, at least one, and a 1-D
    vector is one block.  A `Monomial` is scattered by `Monomial.dense` one
    range of rows at a time; an array is read in place.
    """
    if not isinstance(mat, Monomial):
        mat = np.ascontiguousarray(mat, dtype=complex)
    shape = mat.shape
    width = math.prod(shape[1:])  # pairs per row
    step = shape[0] if len(shape) == 1 else max(1, _BLOCK // width)
    read = mat.dense if isinstance(mat, Monomial) else lambda lo, hi: mat[lo:hi]
    return shape, ((lo * width, read(lo, lo + step)) for lo in range(0, shape[0], step))


def matrix_payload(mat: np.ndarray | Monomial, pad: str) -> Iterator[bytes]:
    """Non-empty complex matrix as nested [re, im] pairs at indentation pad, one block at a time.

    A pair is special if it is nonzero (either bit pattern, so -0.0 counts)
    or opens a row.  Only special pairs are spelled: json spells each distinct
    bit pattern once per matrix (repr, NaN, Infinity or -Infinity), kept for
    later blocks in a memo keyed by the bits, since a key by value would
    merge -0.0 with 0.0.  Their restart depths pick json's separators.  Each
    run of zero pairs after one of them lies inside one row and is a slice
    of one row of zero pairs, cut once per distinct length in the block.
    Blocks come from `_blocks` as whole rows, so each opens with a special
    pair and ends with its own zero run; a `Monomial` gives the bytes of its
    dense matrix, and each block's text is yielded as it is joined, so no
    piece holds more than one block.
    """
    shape, blocks = _blocks(mat)
    before, tail = _separators(len(shape) + 1, pad)
    restarts = np.array(before, dtype=object)
    zero = before[1] + b"0.0" + before[0] + b"0.0"  # a zero pair inside a row
    spans = np.cumprod(shape[::-1]).tolist()
    zeros = memoryview(zero * spans[0])
    spelled: dict[int, bytes] = {}  # json's word for each bit pattern met so far
    for start, pairs in blocks:
        block = pairs.view(np.uint64).reshape(-1, 2)
        special = (block[:, 0] | block[:, 1]) != 0
        special[:: spans[0]] = True
        at = np.flatnonzero(special)
        # zero pairs after each special pair, up to the next one or the block's end
        gaps = np.diff(at, append=len(special)) - 1
        found, leaf = np.unique(block[at].ravel(), return_inverse=True)
        del pairs, block, special  # free a scattered block before its text is joined
        keys = found.tolist()
        new = [key for key in keys if key not in spelled]
        if new:
            text = json.dumps(np.array(new, dtype=np.uint64).view(float).tolist())
            spelled.update(zip(new, text[1:-1].encode().split(b", ")))
        words = np.array([spelled[key] for key in keys], dtype=object)
        lengths, run = np.unique(gaps, return_inverse=True)
        runs = np.empty(len(lengths), dtype=object)
        for k, gap in enumerate(lengths.tolist()):
            runs[k] = zeros[: len(zero) * gap]
        at += start
        depth = np.ones_like(at)  # lists that close and reopen before the pair
        for span in spans:
            depth += at % span == 0
        parts = np.empty((len(at), 5), dtype=object)
        parts[:, 0] = restarts[depth]
        parts[:, 1:4:2] = words[leaf.reshape(-1, 2)]
        parts[:, 2] = before[0]
        parts[:, 4] = runs[run]
        yield b"".join(parts.ravel().tolist())
    yield tail


def _default(matrices: list[np.ndarray | Monomial], value: Any) -> Any:
    """json.dumps hook for the payload types json does not know; matrices go to slots."""
    if isinstance(value, (np.ndarray, Monomial)):
        if 0 in value.shape:  # no values, only brackets json writes itself
            return np.zeros(value.shape).tolist()
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

    Each sidecar is streamed to its file by `dump`.  Without an output path
    everything stays inline.
    """
    for name, value in env["results"].items():
        matrix = isinstance(value, (np.ndarray, Monomial))
        if out is not None and matrix and value.shape[0] > INLINE_DIM_LIMIT:
            side = out.with_name(f"{out.stem}.{name}.json")
            with side.open("wb") as fp:
                dump({"matrix": value}, fp)
            env["results"][name] = {"file": side.name, "dimension": value.shape[0]}
    return env


def _pieces(payload: dict[str, Any]) -> Iterator[bytes]:
    """Sorted-key, indent=2 JSON as ASCII pieces: envelope text, each matrix block by block."""
    found: list[np.ndarray | Monomial] = []
    hook = functools.partial(_default, found)
    text = json.dumps(payload, sort_keys=True, indent=2, default=hook)
    # json's indenting encoder keeps the hook in a reference cycle of closures that
    # only the cyclic collector frees; emptying its list leaves the matrices to this frame.
    matrices = found.copy()
    found.clear()
    pieces = text.split(json.dumps(_SLOT))
    del text
    if len(pieces) != len(matrices) + 1:
        raise ValueError("a payload string equals the matrix slot")
    yield pieces[0].encode()
    for before, mat, after in zip(pieces, matrices, pieces[1:]):
        pad = re.match(" *", before[before.rfind("\n") + 1 :]).group()
        yield from matrix_payload(mat, pad)
        yield after.encode()
    yield b"\n"


def dump(payload: dict[str, Any], fp: BinaryIO) -> None:
    """Write the JSON of `dumps` to the binary stream fp, one piece at a time."""
    for piece in _pieces(payload):
        fp.write(piece)
        del piece  # else it outlives the write while the next block is joined


def dumps(payload: dict[str, Any]) -> str:
    """Sorted-key, indent=2 JSON; each matrix is rendered once, at the indentation of its slot."""
    return b"".join(_pieces(payload)).decode("ascii")


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
