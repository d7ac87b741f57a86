import xml.etree.ElementTree as ET

from hypothesis import given, strategies as st

from cfktools import Staircase, build_double_complex, from_staircase, tau, tensor
from cfktools.diagrams import svg_for_complex, svg_for_staircase

SVG_NS = {"svg": "http://www.w3.org/2000/svg"}


def counts(document):
    root = ET.fromstring(document)
    dots = root.findall(".//svg:circle[@class='dot']", SVG_NS)
    arrows = [
        line
        for line in root.findall(".//svg:line", SVG_NS)
        if line.get("class") == "arrow"
    ]
    axes = [
        line
        for line in root.findall(".//svg:line", SVG_NS)
        if line.get("class") == "axis"
    ]
    return len(dots), len(arrows), len(axes)


def test_staircase_diagram():
    dots, arrows, axes = counts(svg_for_staircase(Staircase((1, 2, 2, 1))))
    assert dots == 5 and arrows == 4
    assert axes == 4


def test_unknot_diagram():
    dots, arrows, _ = counts(svg_for_staircase(Staircase(())))
    assert dots == 1 and arrows == 0


def test_tensor_square_diagram():
    c = from_staircase(Staircase((1, 2, 2, 1)))
    dots, arrows, _ = counts(svg_for_complex(tensor(c, c)))
    assert dots == 25
    assert arrows == len(tensor(c, c).arrows)


def test_double_complex_diagram():
    c = build_double_complex(2)
    dots, arrows, _ = counts(svg_for_complex(c))
    assert dots == len(c.generators)
    assert arrows == len(c.arrows)


def test_staircase_dots_sit_at_walk_coordinates():
    from cfktools import vertices
    from cfktools.diagrams import CELL, PAD_CELLS

    stair = Staircase((1, 2, 2, 1))
    root = ET.fromstring(svg_for_staircase(stair))
    dots = root.findall(".//svg:circle[@class='dot']", SVG_NS)
    jmax = max(v.j for v in vertices(stair)) + PAD_CELLS
    imin = -PAD_CELLS
    got = {
        (
            int(float(d.get("cx")) / CELL - 0.5) + imin,
            jmax - int(float(d.get("cy")) / CELL - 0.5),
        )
        for d in dots
    }
    assert got == {(v.i, v.j) for v in vertices(stair)}


@given(st.lists(st.integers(1, 6), max_size=5))
def test_staircase_diagram_spans_tau_plus_one_cells_and_padding(half):
    # svg_for_staircase checks the grid cap on this span before building the complex
    from cfktools.diagrams import CELL, PAD_CELLS

    stair = Staircase(tuple(half + half[::-1]))
    root = ET.fromstring(svg_for_complex(from_staircase(stair)))
    span = (tau(stair) + 1 + 2 * PAD_CELLS) * CELL
    assert (int(root.get("width")), int(root.get("height"))) == (span, span)
