"""The GF(2) routines against brute-force span enumeration on small systems."""

from functools import reduce
from operator import xor

from hypothesis import given, strategies as st

from cfktools import gf2

from .oracles import brute_rank, brute_span

VECTORS = st.lists(st.integers(min_value=0, max_value=(1 << 10) - 1), max_size=10)
VECTOR = st.integers(min_value=0, max_value=(1 << 10) - 1)


def _combine(columns, combo):
    return reduce(xor, (col for j, col in enumerate(columns) if (combo >> j) & 1), 0)


@given(VECTORS, VECTOR)
def test_solve_matches_span(columns, target):
    combo = gf2.solve_masks(columns, target)
    if target not in brute_span(columns):
        assert combo is None
    else:
        assert combo is not None and combo >> len(columns) == 0
        assert _combine(columns, combo) == target


@given(VECTORS)
def test_rank_matches_span(columns):
    assert gf2.rank_masks(columns) == brute_rank(columns)


@given(VECTORS)
def test_kernel_is_a_basis_of_the_relations(columns):
    kernel = gf2.kernel_masks(columns)
    for combo in kernel:
        assert combo and combo >> len(columns) == 0
        assert _combine(columns, combo) == 0
    assert len(kernel) == len(columns) - brute_rank(columns)
    assert brute_rank(kernel) == len(kernel)


@given(VECTORS, VECTOR)
def test_coset_minimum_is_smallest_in_coset(basis, vector):
    assert gf2.coset_minima([vector], basis) == [min(vector ^ s for s in brute_span(basis))]
