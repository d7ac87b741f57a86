"""GF(2) linear algebra on Python-int bitmasks.

Vectors are ints; bit i is coordinate i and XOR is addition.  Every routine
here runs on one elimination core, the pivot table: it maps a leading bit to
a vector and, for the routines that report which input columns they used
(``solve_masks`` and ``kernel_masks``), to a combination, a mask over the
input columns that XOR to the vector.  ``reduce`` clears every pivot bit of
a vector, highest first; ``insert`` reduces a vector and stores what is
left.  The rank and coset routines track no combination.

The results do not depend on how the table was filled or in which order a
reduction clears its bits:

* the stored vectors are independent and are combinations of exactly the
  columns that were independent of the columns before them, so a solve
  combination is the unique expression of the target over those columns,
  and a kernel combination is a dependent column plus its unique
  expression over the independent columns before it;
* the residue of ``reduce`` is the unique element of the coset
  vector + span with every pivot bit clear, and that element is the coset's
  minimum, because adding any nonzero span element sets its leading bit,
  which is a pivot bit.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence


class PivotTable:
    """Echelon basis keyed by leading bit; rows inserted with a combination keep it."""

    __slots__ = ("rows", "combos", "bits")

    def __init__(self) -> None:
        self.rows: dict[int, int] = {}  # leading bit -> vector
        self.combos: dict[int, int] = {}  # leading bit -> combination, if inserted with one
        self.bits = 0  # mask of the leading bits in rows

    def reduce(self, vector: int) -> int:
        """Clear every pivot bit of vector; returns the residue."""
        rows, bits = self.rows, self.bits
        hits = vector & bits
        while hits:
            vector ^= rows[hits.bit_length() - 1]
            hits = vector & bits
        return vector

    def reduce_combo(self, vector: int, combo: int) -> tuple[int, int]:
        """reduce, adding to combo the combination of each row it adds to vector."""
        rows, combos, bits = self.rows, self.combos, self.bits
        hits = vector & bits
        while hits:
            lead = hits.bit_length() - 1
            vector ^= rows[lead]
            combo ^= combos[lead]
            hits = vector & bits
        return vector, combo

    def insert(self, vector: int, combo: int | None = None) -> tuple[int, int | None]:
        """Reduce vector, with its combination if given, and store the residue
        when it is nonzero; returns (residue, combination)."""
        if combo is None:
            vector = self.reduce(vector)
        else:
            vector, combo = self.reduce_combo(vector, combo)
        if vector:
            lead = vector.bit_length() - 1
            self.rows[lead] = vector
            if combo is not None:
                self.combos[lead] = combo
            self.bits |= 1 << lead
        return vector, combo


def _table(columns: Iterable[int], combos: bool = False) -> PivotTable:
    table = PivotTable()
    for j, col in enumerate(columns):
        table.insert(col, 1 << j if combos else None)
    return table


def solve_masks(columns: Sequence[int], target: int) -> int | None:
    """Find a subset of columns XOR-ing to target.

    Returns the subset as a bitmask over column indices, or None when the
    target lies outside the span.
    """
    residue, combo = _table(columns, combos=True).reduce_combo(target, 0)
    return combo if residue == 0 else None


def rank_masks(vectors: Iterable[int]) -> int:
    return len(_table(vectors).rows)


def kernel_masks(columns: Sequence[int]) -> list[int]:
    """Basis of {x : sum of selected columns = 0}, as masks over column indices.

    One vector per column that reduces to zero: the column plus the earlier
    independent columns that cancel it.
    """
    table = PivotTable()
    inserted = (table.insert(col, 1 << j) for j, col in enumerate(columns))
    return [combo for residue, combo in inserted if not residue]


def coset_minima(vectors: Iterable[int], basis: Iterable[int]) -> list[int]:
    """Smallest element of v + span(basis), for each v in vectors."""
    table = _table(basis)
    return [table.reduce(v) for v in vectors]
