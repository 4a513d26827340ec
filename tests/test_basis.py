import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from sunphases import basis as bs


def fill_states(n, lam):
    """Oracle: the occupation states by recursive descent, heads descending."""
    states = []

    def fill(prefix, remaining, slots):
        if slots == 1:
            states.append(tuple(prefix + [remaining]))
            return
        for head in range(remaining, -1, -1):
            fill(prefix + [head], remaining - head, slots - 1)

    fill([], lam, n)
    return tuple(states)


#: Largest lambda drawn per n, keeping d at or below 462.
LAM_MAX = {2: 12, 3: 12, 4: 8, 5: 6, 6: 5}


@st.composite
def irreps_and_roots(draw):
    n = draw(st.integers(2, 6))
    lam = draw(st.integers(0, LAM_MAX[n]))
    root = draw(st.tuples(st.integers(1, n), st.integers(1, n)).filter(lambda r: r[0] != r[1]))
    return n, lam, root


def test_fundamental_su3_order():
    b = bs.enumerate_basis(3, 1)
    assert b.states == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert len(b) == 3


def test_su3_lambda2_dimension():
    assert len(bs.enumerate_basis(3, 2)) == 6


def test_fundamental_su4():
    b = bs.enumerate_basis(4, 1)
    assert b.states == ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("lam", range(9))
def test_dimension_closed_form(n, lam):
    b = bs.enumerate_basis(n, lam)
    assert len(b) == math.comb(lam + n - 1, n - 1)
    if n == 3:
        assert len(b) == (lam + 1) * (lam + 2) // 2
    # canonical order is strictly lexicographically decreasing
    assert list(b.states) == sorted(b.states, reverse=True)
    # no state repeats
    assert len(set(b.states)) == len(b)


@pytest.mark.parametrize("bad", [(1, 1), (0, 3), (3, -1)])
def test_rejects_bad_irrep_spec(bad):
    with pytest.raises(ValueError):
        bs.enumerate_basis(*bad)
    with pytest.raises(ValueError):
        bs.dimension(*bad)


def test_weights_table_su3_fundamental():
    assert bs.weight_of((1, 0, 0)) == (1, 0)
    assert bs.weight_of((0, 1, 0)) == (-1, 1)
    assert bs.weight_of((0, 0, 1)) == (0, -1)


def test_cartesian_embedding_fundamental_weight():
    x, y = bs.cartesian_embedding((1, 0))
    assert x == pytest.approx(1 / math.sqrt(2))
    assert y == pytest.approx(1 / math.sqrt(6))
    assert bs.cartesian_embedding((0, 0)) == (0.0, 0.0)


def test_weight_root_duality():
    # <w^i | alpha_j> = delta_ij for the Cartesian data
    for i, w in enumerate(bs.FUNDAMENTAL_WEIGHTS_SU3):
        for j, a in enumerate(bs.SIMPLE_ROOTS_SU3):
            dot = w[0] * a[0] + w[1] * a[1]
            assert dot == pytest.approx(1.0 if i == j else 0.0, abs=1e-14)


def test_embedding_undefined_off_su3():
    with pytest.raises(ValueError):
        bs.cartesian_embedding((1, 0, 0), n=4)


def test_strings_su3_fundamental():
    b = bs.enumerate_basis(3, 1)
    part = bs.su2_strings(b, (1, 2))
    named = [tuple(b.states[k] for k in string) for string in oracles.strings_of(part)]
    assert named == [((0, 1, 0), (1, 0, 0)), ((0, 0, 1),)]


def test_strings_su3_lambda2_lengths():
    b = bs.enumerate_basis(3, 2)
    part = bs.su2_strings(b, (1, 2))
    assert sorted(np.diff(part.bounds).tolist()) == [1, 2, 3]


def test_strings_su4_fundamental_root31():
    b = bs.enumerate_basis(4, 1)
    part = bs.su2_strings(b, (3, 1))
    named = [tuple(b.states[k] for k in string) for string in oracles.strings_of(part)]
    assert ((1, 0, 0, 0), (0, 0, 1, 0)) in named
    assert ((0, 1, 0, 0),) in named
    assert ((0, 0, 0, 1),) in named


@settings(deadline=None, max_examples=150)
@given(irreps_and_roots())
def test_array_basis_matches_the_recursive_oracle(case):
    n, lam, _ = case
    b = bs.enumerate_basis(n, lam)
    want = fill_states(n, lam)
    assert b.occupations.shape == (len(want), n)
    assert b.occupations.dtype == np.int64
    assert b.states == want


@settings(deadline=None, max_examples=150)
@given(irreps_and_roots())
def test_strings_and_kernel_match_the_grouping_oracle(case):
    n, lam, root = case
    b = bs.enumerate_basis(n, lam)
    part = bs.su2_strings(b, root)
    # the grouped order holds every string contiguously, each by increasing n_i
    assert oracles.strings_of(part) == oracles.strings(b, root)
    assert sorted(part.order.tolist()) == list(range(len(b)))
    assert np.flatnonzero(bs._kernel_mask(b, root)).tolist() == oracles.kernel_states(b, root)


@settings(deadline=None, max_examples=150)
@given(irreps_and_roots())
def test_image_moves_one_boson_and_wraps_the_top(case):
    # oracle: C_ij's target where n_j > 0, else the string's bottom (n_i = 0)
    n, lam, (i, j) = case
    b = bs.enumerate_basis(n, lam)
    index = oracles.positions(b)
    want = []
    for state in b.states:
        target = list(state)
        moved = 1 if state[j - 1] else -state[i - 1]
        target[i - 1] += moved
        target[j - 1] -= moved
        want.append(index[tuple(target)])
    assert bs.su2_strings(b, (i, j)).image.tolist() == want


@settings(deadline=None, max_examples=100)
@given(irreps_and_roots(), st.data())
def test_edge_overlap_matches_the_set_oracle(case, data):
    n, lam, root_a = case
    root_b = data.draw(
        st.tuples(st.integers(1, n), st.integers(1, n)).filter(
            lambda r: r[0] != r[1] and r != root_a
        )
    )
    b = bs.enumerate_basis(n, lam)
    a, c = set(oracles.kernel_states(b, root_a)), set(oracles.kernel_states(b, root_b))
    assert bs.edge_overlap_count(b, root_a, root_b) == (len(a), len(c), len(a & c), len(a | c))


@pytest.mark.parametrize("n,lam,root", [(3, 3, (1, 2)), (3, 4, (3, 1)), (4, 2, (2, 4))])
def test_strings_partition_invariants(n, lam, root):
    b = bs.enumerate_basis(n, lam)
    found = oracles.strings_of(bs.su2_strings(b, root))
    seen = [k for string in found for k in string]
    assert sorted(seen) == list(range(len(b)))  # disjoint and exhaustive
    assert found == oracles.strings(b, root)
    i, j = root
    for string in found:
        states = [b.states[k] for k in string]
        assert len(string) == states[0][i - 1] + states[0][j - 1] + 1
        ni = [s[i - 1] for s in states]
        assert ni == sorted(ni) and len(set(ni)) == len(ni)


@pytest.mark.parametrize("lam", range(6))
def test_kernel_counts_su3(lam):
    b = bs.enumerate_basis(3, lam)
    assert bs.edge_overlap_count(b, (1, 2), (3, 1))[:2] == (lam + 1, lam + 1)
    assert np.flatnonzero(bs._kernel_mask(b, (1, 2))).tolist() == [
        k for k, s in enumerate(b.states) if s[1] == 0
    ]


@pytest.mark.parametrize("lam", range(5))
def test_kernel_counts_su4(lam):
    b = bs.enumerate_basis(4, lam)
    assert np.count_nonzero(bs._kernel_mask(b, (1, 2))) == (lam + 1) * (lam + 2) // 2


def test_kernel_intersection_su3_lambda2():
    b = bs.enumerate_basis(3, 2)
    both = bs._kernel_mask(b, (1, 2)) & bs._kernel_mask(b, (3, 1))
    assert np.flatnonzero(both).tolist() == [oracles.positions(b)[(0, 0, 2)]]


def test_edge_overlap_counts():
    assert bs.edge_overlap_count(bs.enumerate_basis(3, 2), (1, 2), (3, 1)) == (3, 3, 1, 5)
    assert bs.edge_overlap_count(bs.enumerate_basis(3, 0), (1, 2), (3, 1)) == (1, 1, 1, 1)
    assert bs.edge_overlap_count(bs.enumerate_basis(4, 1), (1, 2), (3, 1)) == (3, 3, 2, 4)
    with pytest.raises(ValueError):
        bs.edge_overlap_count(bs.enumerate_basis(3, 1), (1, 2), (1, 2))


@st.composite
def direct_sums(draw):
    """(n, lo, hi, root): a range of consecutive irreps, lambda = 0 included, and a root."""
    n, hi, root = draw(irreps_and_roots())
    lo = draw(st.integers(0, hi))
    return n, lo, hi, root


@settings(deadline=None, max_examples=150)
@given(direct_sums())
def test_a_range_is_the_concatenation_of_its_irreps(case):
    n, lo, hi, _ = case
    b = bs.enumerate_basis(n, range(lo, hi + 1))
    want = np.concatenate([bs.enumerate_basis(n, lam).occupations for lam in range(lo, hi + 1)])
    assert b.occupations.dtype == np.int64
    assert np.array_equal(b.occupations, want)
    assert (b.n, b.lam) == (n, range(lo, hi + 1))


@pytest.mark.parametrize("lams", [range(0, 6, 2), range(4, 1, -1), range(3, 3), range(-1, 3)])
def test_a_range_must_be_non_empty_non_negative_and_of_step_one(lams):
    with pytest.raises(ValueError):
        bs.enumerate_basis(3, lams)


@settings(deadline=None, max_examples=150)
@given(direct_sums())
def test_strings_of_a_direct_sum_are_the_strings_of_each_block(case):
    n, lo, hi, root = case
    part = bs.su2_strings(bs.enumerate_basis(n, range(lo, hi + 1)), root)
    want, start = [], 0
    for lam in range(lo, hi + 1):
        block = bs.enumerate_basis(n, lam)
        want += [tuple(k + start for k in string) for string in oracles.strings(block, root)]
        start += len(block)
    assert oracles.strings_of(part) == tuple(sorted(want))


def lexsort_strings(basis, root):
    """Oracle: order, bounds and image from a lexsort on (frozen occupations, n_i)."""
    i, j = root
    occ = basis.occupations
    frozen = [occ[:, k] for k in range(basis.n) if k not in (i - 1, j - 1)]
    order = np.lexsort([occ[:, i - 1], *frozen])
    bounds = np.concatenate(((occ[:, i - 1][order] == 0).nonzero()[0], (len(order),)))
    image = np.empty_like(order)
    image[order[:-1]] = order[1:]
    image[order[bounds[1:] - 1]] = order[bounds[:-1]]
    return order, bounds, image


def assert_same_partition(b, root):
    part = bs.su2_strings(b, root)
    for got, want in zip((part.order, part.bounds, part.image), lexsort_strings(b, root)):
        assert np.array_equal(got, want)


@settings(deadline=None, max_examples=150)
@given(irreps_and_roots())
def test_the_packed_key_sorts_an_irrep_as_the_lexsort_does(case):
    n, lam, root = case
    assert_same_partition(bs.enumerate_basis(n, lam), root)


@pytest.mark.parametrize("root", [(1, 2), (40, 1), (7, 33), (39, 40)])
def test_a_key_of_two_words_sorts_as_the_lexsort_does(root):
    # 40 digits in base 3: 3**40 > 2**63, so the key spills into a second word
    b = bs.enumerate_basis(40, 2)
    assert 3**40 > 2**63 >= 3**39
    assert bs._key_weights(40, *root, 3).shape == (40, 2)
    assert_same_partition(b, root)
