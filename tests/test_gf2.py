"""The GF(2) routines against brute-force span enumeration on small systems."""

import random
from functools import reduce
from operator import xor

import pytest
from hypothesis import given, strategies as st

from cfktools import gf2

from .oracles import (
    brute_rank,
    brute_solve_gf2,
    brute_span,
    reference_kernel_masks,
    reference_solve_masks,
)

VECTORS = st.lists(st.integers(min_value=0, max_value=(1 << 10) - 1), max_size=10)
VECTOR = st.integers(min_value=0, max_value=(1 << 10) - 1)


def _combine(columns, combo):
    return reduce(xor, (col for j, col in enumerate(columns) if (combo >> j) & 1), 0)


def _solve_dense(rows, rhs):
    """solve_masks on the system rows x = rhs, bit i of each mask being row i."""
    columns = [sum(row[j] << i for i, row in enumerate(rows)) for j in range(len(rows[0]))]
    target = sum(bit << i for i, bit in enumerate(rhs))
    return gf2.solve_masks(columns, target)


@pytest.mark.parametrize(
    "rows, rhs, combo",
    [
        ([[1, 0], [0, 1]], [1, 0], 0b01),
        ([[0, 0], [0, 0]], [1, 0], None),
        ([[1, 1], [0, 1]], [1, 1], 0b10),
    ],
)
def test_solve_small_systems(rows, rhs, combo):
    assert _solve_dense(rows, rhs) == combo
    expect = brute_solve_gf2(rows, rhs)
    assert expect == (None if combo is None else [(combo >> j) & 1 for j in range(2)])


@pytest.mark.parametrize("seed", range(10))
def test_solve_against_enumeration(seed):
    rng = random.Random(seed)
    rows = [[rng.randint(0, 1) for _ in range(4)] for _ in range(3)]
    rhs = [rng.randint(0, 1) for _ in range(3)]
    combo = _solve_dense(rows, rhs)
    if brute_solve_gf2(rows, rhs) is None:
        assert combo is None
    else:
        assert combo is not None
        x = [(combo >> j) & 1 for j in range(4)]
        assert all(sum(rows[i][j] * x[j] for j in range(4)) % 2 == rhs[i] for i in range(3))


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


@given(VECTORS, VECTOR)
def test_solve_returns_the_combination_tables_combination(columns, target):
    """Shifted rows pick exactly the combination a side table of combinations
    picks, not just one that XORs to the target."""
    assert gf2.solve_masks(columns, target) == reference_solve_masks(columns, target)


@given(VECTORS)
def test_kernel_is_a_basis_of_the_relations(columns):
    kernel = reference_kernel_masks(columns)
    for combo in kernel:
        assert combo and combo >> len(columns) == 0
        assert _combine(columns, combo) == 0
    assert len(kernel) == len(columns) - brute_rank(columns)
    assert brute_rank(kernel) == len(kernel)


@given(VECTORS, VECTOR)
def test_coset_minimum_is_smallest_in_coset(basis, vector):
    assert gf2.coset_minima([vector], basis) == [min(vector ^ s for s in brute_span(basis))]
