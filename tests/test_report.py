import gc
import io
import json
import math
import re
import tracemalloc
import weakref
from fractions import Fraction

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sunphases import pauli, phases, report
from sunphases.basis import enumerate_basis
from sunphases.cli import main
from sunphases.generators import (
    Monomial,
    build_generators,
    commutation_residual,
    generator_matrix,
)

LIMIT = 3


@pytest.fixture(autouse=True)
def small_limit(monkeypatch):
    monkeypatch.setattr(report, "INLINE_DIM_LIMIT", LIMIT)


def matrix(rows):
    return np.arange(rows * rows).reshape(rows, rows) * (1 - 0.5j)


def spill(mat, out):
    env = report.envelope("test", {}, {"E": mat})
    return report.spill_large_matrices(env, out)["results"]["E"]


def test_matrix_at_the_limit_stays_inline(tmp_path):
    mat = matrix(LIMIT)
    assert spill(mat, tmp_path / "run.json") is mat
    assert list(tmp_path.iterdir()) == []


def test_matrix_above_the_limit_goes_to_a_sidecar(tmp_path):
    mat = matrix(LIMIT + 1)
    assert spill(mat, tmp_path / "run.json") == {"file": "run.E.json", "dimension": LIMIT + 1}
    pairs = np.array(json.loads((tmp_path / "run.E.json").read_text())["matrix"])
    assert np.array_equal(pairs[..., 0] + 1j * pairs[..., 1], mat)


def test_without_out_everything_is_inline():
    mat = matrix(LIMIT + 1)
    assert spill(mat, None) is mat


def test_a_monomial_above_the_limit_goes_to_a_sidecar(tmp_path):
    m = Monomial(np.array([2, 0, 3, 1]), np.array([1.0, -0.0, 2j, -1.0 + 0.5j]))
    assert spill(m, tmp_path / "run.json") == {"file": "run.E.json", "dimension": LIMIT + 1}
    assert (tmp_path / "run.E.json").read_bytes() == report.dumps({"matrix": m.dense()}).encode()
    at_limit = Monomial(np.array([1, 2, 0]), np.ones(3))
    assert spill(at_limit, tmp_path / "other.json") is at_limit


def test_an_empty_monomial_is_an_empty_list():
    empty = Monomial(np.array([], dtype=int), np.array([]))
    assert report.dumps({"matrix": empty}) == stock({"matrix": []})


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


def by_hand(value):
    """The payload with every ndarray spelled out as nested [re, im] lists."""
    if isinstance(value, np.ndarray):
        return [by_hand(part) for part in value]
    if isinstance(value, np.generic):
        z = complex(value)
        return [z.real, z.imag]
    if isinstance(value, dict):
        return {key: by_hand(part) for key, part in value.items()}
    if isinstance(value, list):
        return [by_hand(part) for part in value]
    return value


def stock(payload):
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


SPECIAL_FLOATS = [-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, -2.2e-308, 1.7e308, 1e-300]
VIEWS = [
    lambda a: a,
    lambda a: a.T,
    lambda a: a[::-1],
    lambda a: a[..., ::2],
]


@st.composite
def arrays(draw):
    dtype = draw(st.sampled_from([np.int64, np.float64, np.complex128]))
    shape = draw(hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=4))
    if dtype is np.int64:
        elements = st.integers(-(2**53), 2**53)
    else:
        floats = st.floats(allow_subnormal=True) | st.sampled_from(SPECIAL_FLOATS)
        elements = st.builds(complex, floats, floats) if dtype is np.complex128 else floats
    return draw(st.sampled_from(VIEWS))(draw(hnp.arrays(dtype, shape, elements=elements)))


payloads = st.recursive(
    arrays() | st.floats() | st.integers() | st.text(max_size=3) | st.none(),
    lambda inner: (
        st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3)
    ),
    max_leaves=6,
)


#: Zeros whose bits are not all zero: each is rendered like a nonzero pair.
SIGNED_ZEROS = [complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)]

#: Longer than one block: rows shorter than a block, a block boundary inside a row,
#: and rows longer than a block, so that some blocks hold no pair to spell.
LONG_SHAPES = [
    (report._BLOCK + 1,),
    (2 * report._BLOCK + 3,),
    (3, report._BLOCK // 2 + 1),
    (2, report._BLOCK + 5),
    (2, 3, report._BLOCK // 5),
]


@st.composite
def sparse_arrays(draw, shapes=hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=6)):
    """Mostly zero complex arrays: rare nonzeros, signed zeros among the zeros, all-zero
    rows and whole arrays, and a zero or nonzero first and last entry."""
    shape = draw(shapes)
    flat = np.zeros(math.prod(shape), dtype=complex)
    index = st.integers(0, len(flat) - 1)
    floats = st.floats(allow_subnormal=True) | st.sampled_from(SPECIAL_FLOATS)
    nonzero = st.builds(complex, floats, floats) | st.sampled_from([1.0, -1.0, 1j, 0.5 - 2j])
    for k, value in draw(st.lists(st.tuples(index, nonzero), max_size=6)):
        flat[k] = value
    for k, value in draw(st.lists(st.tuples(index, st.sampled_from(SIGNED_ZEROS)), max_size=3)):
        flat[k] = value
    for k in (0, -1):
        flat[k] = draw(st.sampled_from([flat[k], 0.0, 1.0 + 0.25j, *SIGNED_ZEROS]))
    return flat.reshape(shape)


@settings(deadline=None, max_examples=300)
@given(sparse_arrays(), st.sampled_from([1, 2, 3, 5, 8, report._BLOCK]))
def test_a_sparse_matrix_matches_the_stock_encoder_at_any_block(mat, block):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(report, "_BLOCK", block)
        assert report.dumps({"matrix": mat}) == stock({"matrix": by_hand(mat)})


def _special(z):
    """Whether a pair is spelled wherever it stands: either bit pattern is not all zero."""
    return bool(np.array([z]).view(np.uint64).any())


@st.composite
def pooled_arrays(draw):
    """Dense complex arrays over a pool of a few pairs: every pair is special, and the
    same bit patterns recur in every block, signed zeros and NaN among them."""
    floats = st.floats(allow_subnormal=True) | st.sampled_from(SPECIAL_FLOATS)
    pairs = st.builds(complex, floats, floats).filter(_special)
    pool = draw(st.lists(pairs, min_size=1, max_size=5))
    shape = draw(hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=6))
    picks = draw(hnp.arrays(np.intp, shape, elements=st.integers(0, len(pool) - 1)))
    return np.array(pool, dtype=complex)[picks]


@settings(deadline=None, max_examples=300)
@given(pooled_arrays(), st.sampled_from([1, 2, 3, 5, 8, report._BLOCK]))
def test_a_matrix_of_recurring_values_matches_the_stock_encoder_at_any_block(mat, block):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(report, "_BLOCK", block)
        assert report.dumps({"matrix": mat}) == stock({"matrix": by_hand(mat)})


@st.composite
def monomials(draw, sizes=st.integers(1, 12)):
    """Weighted permutations whose values mix zeros of either sign, NaN, infinities,
    subnormals and complex values; real or complex, as ladders and completions are."""
    d = draw(sizes)
    rows = np.array(draw(st.permutations(range(d))), dtype=np.intp)
    floats = st.floats(allow_subnormal=True) | st.sampled_from(SPECIAL_FLOATS)
    values = st.builds(complex, floats, floats) | st.sampled_from(
        [0j, 1.0, -1.0, 1j, *SIGNED_ZEROS]
    )
    vals = np.array(draw(st.lists(values, min_size=d, max_size=d)), dtype=complex)
    return Monomial(rows, vals.real.copy() if draw(st.booleans()) else vals)


@settings(deadline=None, max_examples=300)
@given(monomials(), st.sampled_from([1, 2, 3, 5, 8, report._BLOCK]), st.sampled_from(["", "    "]))
def test_a_monomial_renders_the_bytes_of_its_dense_matrix(m, block, pad):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(report, "_BLOCK", block)
        want = b"".join(report.matrix_payload(m.dense(), pad))
        assert b"".join(report.matrix_payload(m, pad)) == want


@pytest.mark.parametrize("d, seed", [(182, 1), (229, 2), (260, 3)])
def test_a_monomial_longer_than_a_block_renders_the_bytes_of_its_dense_matrix(d, seed):
    rng = np.random.default_rng(seed)
    pool = [*SPECIAL_FLOATS, *SIGNED_ZEROS, 1j, -0.5 + 2j, *rng.normal(size=4)]
    m = Monomial(rng.permutation(d), rng.choice(np.array(pool, dtype=complex), d))
    assert d**2 > report._BLOCK
    want = b"".join(report.matrix_payload(m.dense(), "  "))
    assert b"".join(report.matrix_payload(m, "  ")) == want


def _phi(n, lam):
    factors = phases.polar_decompose(enumerate_basis(n, lam), (1, 2), "plus")
    return phases.phase_hermitian(factors.monomial)


@pytest.mark.parametrize("n, lam", [(3, 28), (2, 450)])
def test_each_special_bit_pattern_is_spelled_once_per_matrix(monkeypatch, n, lam):
    phi = _phi(n, lam)
    bits = phi.view(np.uint64).reshape(-1, 2)
    special = bits.any(axis=1)
    special[:: len(phi)] = True  # the pairs that open a row
    want = np.unique(bits[special])
    assert len(phi) ** 2 > report._BLOCK  # several blocks share the patterns
    spelled = []

    def spy(value, *args, dumps=json.dumps, **kwargs):
        if all(isinstance(x, float) for x in value):  # not the separators' template
            spelled.extend(value)
        return dumps(value, *args, **kwargs)

    monkeypatch.setattr(report.json, "dumps", spy)
    for _ in range(2):  # a second matrix spells its patterns again
        spelled.clear()
        text = b"".join(report.matrix_payload(phi, ""))
        assert np.array_equal(np.sort(np.array(spelled).view(np.uint64)), want)
    monkeypatch.undo()
    assert text.decode() == json.dumps(phi.view(float).reshape(*phi.shape, 2).tolist(), indent=2)


@settings(deadline=None, max_examples=10)
@given(sparse_arrays(shapes=st.sampled_from(LONG_SHAPES)))
def test_a_matrix_longer_than_a_block_matches_the_stock_encoder(mat):
    assert report.dumps({"matrix": mat}) == stock({"matrix": by_hand(mat)})


@settings(deadline=None, max_examples=300)
@given(arrays())
def test_a_rendered_matrix_matches_the_stock_encoder(mat):
    assert report.dumps({"matrix": mat}) == stock({"matrix": by_hand(mat)})


@settings(deadline=None)
@given(payloads)
def test_nested_matrices_match_the_stock_encoder(tree):
    assert report.dumps({"payload": tree}) == stock({"payload": by_hand(tree)})


def test_one_matrix_at_two_depths_matches_the_stock_encoder():
    mat = matrix(2)
    payload = {"a": mat, "b": [{"c": mat}]}
    assert report.dumps(payload) == stock(by_hand(payload))


def _lets_its_matrices_go_without_the_cyclic_collector(render):
    # json's indenting encoder leaves its closures, the hook among them, in a cycle
    mat = np.eye(2, dtype=complex)
    ref = weakref.ref(mat)
    gc.disable()
    try:
        render({"a": mat, "b": [mat]})
        del mat
        assert ref() is None
    finally:
        gc.enable()


def test_dumps_lets_its_matrices_go_without_the_cyclic_collector():
    _lets_its_matrices_go_without_the_cyclic_collector(report.dumps)


def test_dump_lets_its_matrices_go_without_the_cyclic_collector():
    _lets_its_matrices_go_without_the_cyclic_collector(
        lambda payload: report.dump(payload, io.BytesIO())
    )


def dumped(payload):
    fp = io.BytesIO()
    report.dump(payload, fp)
    return fp.getvalue()


#: Dicts of matrices and floats nested in lists and dicts, so matrices sit at several depths.
deep_payloads = st.recursive(
    st.dictionaries(st.text(max_size=3), sparse_arrays() | arrays() | st.floats(), max_size=3),
    lambda inner: (
        st.lists(inner, min_size=1, max_size=3)
        | st.dictionaries(st.text(max_size=3), inner, min_size=1, max_size=3)
    ),
    max_leaves=4,
)


@settings(deadline=None, max_examples=150)
@given(deep_payloads, st.sampled_from([1, 2, 7, report._BLOCK]))
def test_dump_writes_the_stock_encoding_at_any_block(tree, block):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(report, "_BLOCK", block)
        assert dumped({"payload": tree}) == stock({"payload": by_hand(tree)}).encode()
        assert report.dumps({"payload": tree}) == stock({"payload": by_hand(tree)})


def test_dump_writes_nothing_for_a_refused_payload():
    fp = io.BytesIO()
    with pytest.raises(ValueError):
        report.dump({"matrix": np.eye(2), "text": report._SLOT}, fp)
    assert fp.getvalue() == b""


@pytest.mark.parametrize("rows", [LIMIT + 1, 9])
def test_a_sidecar_holds_what_dumps_gives_its_matrix(tmp_path, rows):
    mat = matrix(rows) * (1 - (np.arange(rows) % 2))  # every other column zero
    spill(mat, tmp_path / "run.json")
    assert (tmp_path / "run.E.json").read_bytes() == report.dumps({"matrix": mat}).encode()


def test_a_payload_string_equal_to_the_slot_is_refused():
    with pytest.raises(ValueError):
        report.dumps({"matrix": np.eye(2), "text": report._SLOT})


def _expected_envelope(text, command, parameters, results, residuals):
    """The envelope the CLI should write, hand-converted, with its own timestamp."""
    env = report.envelope(command, parameters, by_hand(results), residuals)
    return stock(dict(env, timestamp=json.loads(text)["timestamp"]))


@pytest.mark.parametrize("convention", ["plus", "paper-sign"])
def test_phases_sidecars_are_the_stock_encoding(tmp_path, convention):
    out = tmp_path / "run.json"
    args = ["phases", "--n", "3", "--lambda", "4", "--root", "1,2",
            "--convention", convention, "--out", str(out)]
    assert CliRunner().invoke(main, args).exit_code == 0
    basis = enumerate_basis(3, 4)
    factors = phases.polar_decompose(basis, (1, 2), convention)
    emat, dmat = factors.unitary, factors.positive
    cmat = generator_matrix(basis, 1, 2)
    matrices = {"E": emat, "D": dmat, "phi": phases.phase_hermitian(emat)}
    for name, mat in matrices.items():
        side = tmp_path / f"run.{name}.json"
        assert side.read_text() == stock({"matrix": by_hand(mat)})
    text = out.read_text()
    assert text == _expected_envelope(
        text,
        "phases",
        {
            "n": 3, "lambda": 4, "root": [1, 2],
            "convention": convention, "beta": None, "gamma": None,
        },
        {"dimension": len(basis)}
        | {name: {"file": f"run.{name}.json", "dimension": len(basis)} for name in matrices},
        {
            "unitarity": phases.unitarity_residual(emat),
            "polar_identity": float(np.max(np.abs(emat @ dmat - cmat))),
        },
    )


@pytest.mark.parametrize("root, flag", [((1, 2), "--beta"), ((2, 3), "--gamma")])
@pytest.mark.parametrize(
    "angle", [0.0, -0.0, math.pi, 2 * math.pi / 3, -2 * math.pi / 3, 2 * math.pi]
)
def test_complementary_payloads_are_the_encoding_of_the_dense_family(root, flag, angle):
    args = ["phases", "--n", "3", "--lambda", "1", "--root", f"{root[0]},{root[1]}",
            "--convention", "complementary", f"{flag}={angle!r}"]
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 0
    factors = phases.polar_decompose(enumerate_basis(3, 1), root, "complementary", angle)
    family = {(1, 2): pauli.complementary_E12, (2, 3): pauli.complementary_E23}[root]
    emat = family(angle)  # the family's own dense matrix, not the scatter of factors.monomial
    angles = {"beta": None, "gamma": None, flag[2:]: angle}
    assert result.output == _expected_envelope(
        result.output,
        "phases",
        {"n": 3, "lambda": 1, "root": list(root), "convention": "complementary"} | angles,
        {
            "dimension": 3,
            "E": emat,
            "D": factors.positive,
            "phi": phases.phase_hermitian(emat),
        },
        {
            "unitarity": phases.unitarity_residual(emat),
            "polar_identity": phases.polar_identity_residual(factors),
        },
    )


def test_inline_gens_payload_is_the_stock_encoding():
    result = CliRunner().invoke(main, ["gens", "--n", "3", "--lambda", "3"])
    assert result.exit_code == 0
    gens = build_generators(enumerate_basis(3, 3))
    results = {"dimension": 10}
    results |= {f"C_{i}{j}": gens.ladder(i, j).dense() for i, j in gens.roots}
    results |= {f"h_{k}": gens.cartan(k).dense() for k in (1, 2)}
    assert result.output == _expected_envelope(
        result.output,
        "gens",
        {"n": 3, "lambda": 3},
        results,
        {"commutation": commutation_residual(gens)},
    )


@pytest.mark.parametrize(
    "args",
    [
        ["phases", "--n", "3", "--lambda", "5", "--root", "3,1", "--convention", "paper-sign"],
        ["phases", "--n", "2", "--lambda", "6"],
        ["gens", "--n", "3", "--lambda", "3"],
    ],
)
def test_stdout_holds_the_bytes_of_the_out_file(tmp_path, monkeypatch, args):
    monkeypatch.setattr(report, "INLINE_DIM_LIMIT", 400)
    stamp = re.compile(rb'^  "timestamp": .*\n', re.M)
    inline = CliRunner().invoke(main, args)
    out = tmp_path / "run.json"
    assert inline.exit_code == CliRunner().invoke(main, [*args, "--out", str(out)]).exit_code == 0
    assert [p.name for p in tmp_path.iterdir()] == ["run.json"]
    assert stamp.sub(b"", inline.stdout_bytes) == stamp.sub(b"", out.read_bytes())
    assert len(stamp.findall(inline.stdout_bytes)) == 1


def test_a_refused_payload_leaves_the_out_file_as_it_was(tmp_path, monkeypatch):
    # a slot the payload also spells: the convention parameter's value
    monkeypatch.setattr(report, "_SLOT", "plus")
    out = tmp_path / "run.json"
    out.write_bytes(b"an earlier report\n")
    result = CliRunner().invoke(main, ["phases", "--n", "3", "--lambda", "2", "--out", str(out)])
    assert isinstance(result.exception, ValueError)
    assert out.read_bytes() == b"an earlier report\n"


#: One dense complex d x d matrix at su(3) lambda = 28 (d = 435), in bytes.
DENSE_435 = 16 * 435**2


def _traced_peak(args):
    """Peak of the memory Python and numpy allocate during one CLI call, in bytes."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = CliRunner().invoke(main, args)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert result.exit_code == 0
    return peak


def test_a_phases_call_holds_fewer_than_three_dense_matrices(tmp_path):
    # E and D are rendered from their Monomial forms, and C and the dense D are
    # freed before phi is built, so at most C and D, or phi, are dense at once
    args = ["phases", "--n", "3", "--lambda", "28", "--out", str(tmp_path / "run.json")]
    assert _traced_peak(args) < 3 * DENSE_435


def test_a_gens_call_holds_less_than_one_dense_matrix(tmp_path):
    # every ladder and Cartan is rendered from its Monomial form, a block of rows at a time
    args = ["gens", "--n", "3", "--lambda", "28", "--out", str(tmp_path / "run.json")]
    assert _traced_peak(args) < DENSE_435


@pytest.mark.parametrize(
    "args, whole",
    [
        (["phases", "--n", "3", "--lambda", "28"], 1),  # C, from generator_matrix
        (["gens", "--n", "3", "--lambda", "28"], 0),
    ],
)
def test_the_matrix_commands_scatter_blocks_of_rows(tmp_path, monkeypatch, args, whole):
    sizes = []
    dense = Monomial.dense

    def spy(self, *rows):
        mat = dense(self, *rows)
        sizes.append(mat.size)
        return mat

    monkeypatch.setattr(Monomial, "dense", spy)
    assert CliRunner().invoke(main, [*args, "--out", str(tmp_path / "run.json")]).exit_code == 0
    assert sizes.count(435**2) == whole
    assert max(size for size in sizes if size != 435**2) <= report._BLOCK
