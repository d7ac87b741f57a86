"""Static SVG grid diagrams for staircases and filtered complexes.

Each generator gets one dot.  Its column is chosen so that arrows connect
dot to dot whenever the complex allows it: an arrow with upower a forces the
target's column to sit a cells left of the source's.  Columns are assigned
per connected component by a breadth-first walk over generator positions,
rooted at the component's first generator, that takes each generator's
arrows in the order they are drawn (conflicting constraints, which graded
complexes built here never produce, fall back to the walk tree).  Names,
which differ in every complex, are read only to order the arrows (by source
name, target name and upower) and the dots (by name), and for the dots'
titles, escaped as XML text.  Fixed cell size, no styling knobs.  The grid
draws a line per cell, so a diagram may span at most MAX_GRID_CELLS cells
per axis, padding included; a staircase's span is checked from its
vertices, before its complex is built.
"""

from __future__ import annotations

from collections import deque

from .errors import InvalidParameter
from .filtered import FilteredComplex, from_staircase
from .staircase import Staircase, tau

CELL = 40
DOT_RADIUS = 5
PAD_CELLS = 1
MAX_GRID_CELLS = 10_000  # widest and tallest diagram, in cells


def _columns(count: int, arrows: list[tuple[int, int, int]]) -> list[int]:
    """Column of each of count positions, walking neighbours in the order of arrows."""
    neighbours: list[list[tuple[int, int]]] = [[] for _ in range(count)]
    for s, t, u in arrows:
        neighbours[s].append((t, -u))
        neighbours[t].append((s, u))
    cols: list[int | None] = [None] * count
    for root in range(count):
        if cols[root] is not None:
            continue
        cols[root] = 0
        queue = deque([root])
        while queue:
            p = queue.popleft()
            for other, offset in neighbours[p]:
                if cols[other] is None:
                    cols[other] = cols[p] + offset
                    queue.append(other)
    return cols


def _check_grid(columns: int, rows: int) -> None:
    if max(columns, rows) > MAX_GRID_CELLS:
        raise InvalidParameter(
            f"diagrams span at most {MAX_GRID_CELLS} cells per axis, got {columns} x {rows}"
        )


def svg_for_complex(complex: FilteredComplex) -> str:
    """The complex's diagram."""
    names = complex._names
    # positions in name order, the order of the dots, and each one's rank in it
    by_name = sorted(range(len(names)), key=names.__getitem__)
    rank = [0] * len(names)
    for r, p in enumerate(by_name):
        rank[p] = r
    ordered = sorted(complex._arrows, key=lambda a: (rank[a[0]], rank[a[1]], a[2]))
    cols = _columns(len(names), ordered)
    dots = [(col, alexander + col) for col, alexander in zip(cols, complex._alexander)]
    arrows = []
    for s, t, u in ordered:
        x0, y0 = dots[s]
        x1, y1 = dots[t]
        # the target's translate at column x0 - upower, on its own diagonal
        arrows.append((x0, y0, x0 - u, y1 - x1 + x0 - u))

    xs = [x for x, _ in dots] + [a[2] for a in arrows] or [0]
    ys = [y for _, y in dots] + [a[3] for a in arrows] or [0]
    imin, imax = min(xs) - PAD_CELLS, max(xs) + PAD_CELLS
    jmin, jmax = min(ys) - PAD_CELLS, max(ys) + PAD_CELLS
    columns, rows = imax - imin + 1, jmax - jmin + 1
    _check_grid(columns, rows)
    width = columns * CELL
    height = rows * CELL

    def cx(i: int) -> float:
        return (i - imin + 0.5) * CELL

    def cy(j: int) -> float:
        return (jmax - j + 0.5) * CELL

    def edge_x(i: int) -> float:
        return (i - imin) * CELL

    def edge_y(j: int) -> float:
        return (jmax - j + 1) * CELL

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">',
        "<defs>"
        '<marker id="tip" viewBox="0 0 10 10" refX="9" refY="5" '
        'markerWidth="6" markerHeight="6" orient="auto-start-reverse">'
        '<path d="M 0 0 L 10 5 L 0 10 z"/></marker>'
        "</defs>",
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for i in range(imin, imax + 2):
        lines.append(
            f'<line class="grid" x1="{edge_x(i)}" y1="0" x2="{edge_x(i)}" '
            f'y2="{height}" stroke="#dddddd" stroke-width="1"/>'
        )
    for j in range(jmin - 1, jmax + 1):
        lines.append(
            f'<line class="grid" x1="0" y1="{edge_y(j)}" x2="{width}" '
            f'y2="{edge_y(j)}" stroke="#dddddd" stroke-width="1"/>'
        )
    # both walls of the zero row and zero column, like a marked axis pair
    for i in (0, 1):
        lines.append(
            f'<line class="axis" x1="{edge_x(i)}" y1="0" x2="{edge_x(i)}" '
            f'y2="{height}" stroke="#555555" stroke-width="2"/>'
        )
    for j in (-1, 0):
        lines.append(
            f'<line class="axis" x1="0" y1="{edge_y(j)}" x2="{width}" '
            f'y2="{edge_y(j)}" stroke="#555555" stroke-width="2"/>'
        )
    # arrows between one pair of cells draw one line, formatted once
    drawn: dict[tuple[int, int, int, int], str] = {}
    for cells in arrows:
        line = drawn.get(cells)
        if line is None:
            x0, y0, x1, y1 = cells
            sx, sy, tx, ty = cx(x0), cy(y0), cx(x1), cy(y1)
            dx, dy = tx - sx, ty - sy
            norm = (dx * dx + dy * dy) ** 0.5 or 1.0
            trim = DOT_RADIUS + 2
            line = drawn[cells] = (
                f'<line class="arrow" x1="{sx + dx / norm * trim:.1f}" '
                f'y1="{sy + dy / norm * trim:.1f}" '
                f'x2="{tx - dx / norm * trim:.1f}" y2="{ty - dy / norm * trim:.1f}" '
                f'stroke="black" stroke-width="1.5" marker-end="url(#tip)"/>'
            )
        lines.append(line)
    dot = f'<circle class="dot" cx="%s" cy="%s" r="{DOT_RADIUS}"><title>%s</title></circle>'
    for p in by_name:
        i, j = dots[p]
        # a title is XML text, escaped as xml.sax.saxutils.escape does, & first;
        # that module imports urllib.request, which every cfk process would load
        title = names[p].replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        lines.append(dot % (cx(i), cy(j), title))
    lines.append("</svg>")
    return "\n".join(lines)


def svg_for_staircase(stair: Staircase) -> str:
    """The staircase complex's diagram, its span checked before it is built.

    Its dots sit at the walk's vertices (i, j), which run from 0 to tau on
    each axis, so the diagram spans tau + 1 cells plus the padding.
    """
    span = tau(stair) + 1 + 2 * PAD_CELLS
    _check_grid(span, span)
    return svg_for_complex(from_staircase(stair))
