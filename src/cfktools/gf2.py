"""GF(2) linear algebra on Python-int bitmasks.

Vectors are ints; bit i is coordinate i and XOR is addition.  Every routine
here runs on one elimination core, the pivot table: it maps a leading bit to
a vector.  ``reduce`` clears every pivot bit of a vector, highest first;
``insert`` reduces a vector and stores what is left.

A routine that must report which input columns it used stores column j of n
as the shifted row (column << n) | (1 << j).  Reduction clears the high bits
exactly as it would clear the bare columns, and the low bits gather the
columns whose rows it added, so a residue with no high bit left names a
combination of columns that XOR to zero.  Such a residue is not stored
(``insert(vector, low=n)``), so every pivot of a shifted row is a high bit.

The results do not depend on how the table was filled or in which order a
reduction clears its bits:

* the stored rows are independent and their high parts are combinations of
  exactly the columns that were independent of the columns before them, so
  ``solve_masks``'s combination is the unique expression of the target over
  those columns;
* the residue of ``reduce`` is the unique element of the coset
  vector + span with every pivot bit clear, and that element is the coset's
  minimum, because adding any nonzero span element sets its leading bit,
  which is a pivot bit.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence


class PivotTable:
    """Echelon basis keyed by leading bit, filled from vectors."""

    __slots__ = ("rows", "bits")

    def __init__(self, vectors: Iterable[int] = ()) -> None:
        self.rows: dict[int, int] = {}  # leading bit -> vector
        self.bits = 0  # mask of the leading bits in rows
        for vector in vectors:
            self.insert(vector)

    def reduce(self, vector: int) -> int:
        """Clear every pivot bit of vector; returns the residue."""
        rows, bits = self.rows, self.bits
        hits = vector & bits
        while hits:
            vector ^= rows[hits.bit_length() - 1]
            hits = vector & bits
        return vector

    def insert(self, vector: int, low: int = 0) -> int:
        """Reduce vector and store the residue when it has a bit at low or
        above; returns the residue."""
        vector = self.reduce(vector)
        if vector >> low:
            lead = vector.bit_length() - 1
            self.rows[lead] = vector
            self.bits |= 1 << lead
        return vector


def solve_masks(columns: Sequence[int], target: int) -> int | None:
    """Find a subset of columns XOR-ing to target.

    Returns the subset as a bitmask over column indices, or None when the
    target lies outside the span.
    """
    n = len(columns)
    table = PivotTable()
    for j, col in enumerate(columns):
        table.insert(col << n | 1 << j, n)
    residue = table.reduce(target << n)
    return None if residue >> n else residue


def rank_masks(vectors: Iterable[int]) -> int:
    return len(PivotTable(vectors).rows)


def coset_minima(vectors: Iterable[int], basis: Iterable[int]) -> list[int]:
    """Smallest element of v + span(basis), for each v in vectors."""
    table = PivotTable(basis)
    return [table.reduce(v) for v in vectors]
