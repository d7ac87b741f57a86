import xml.etree.ElementTree as ET

import pytest
from hypothesis import given, settings, strategies as st

from cfktools import (
    Arrow,
    CFKError,
    FilteredComplex,
    Generator,
    Staircase,
    build_double_complex,
    from_staircase,
    tau,
    tensor,
)
from cfktools.diagrams import svg_for_complex, svg_for_staircase

from .complex_fixtures import scrambled_double
from .oracles import reference_svg_for_complex

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
@settings(deadline=None)
def test_staircase_diagram_spans_tau_plus_one_cells_and_padding(half):
    # svg_for_staircase checks the grid cap on this span before building the complex
    from cfktools.diagrams import CELL, PAD_CELLS

    stair = Staircase(tuple(half + half[::-1]))
    root = ET.fromstring(svg_for_complex(from_staircase(stair)))
    span = (tau(stair) + 1 + 2 * PAD_CELLS) * CELL
    assert (int(root.get("width")), int(root.get("height"))) == (span, span)


@pytest.mark.parametrize(
    "gens, arrows, report",
    [
        ([("a", 0, 0), ("b", 0, -1)], [("a", "b", 0), ("b", "zz", 0)],
         "unknown-generator: arrow b->zz has a loose end"),
        ([("a", 0, 0), ("b", 0, -1), ("a", 1, 1)], [("a", "b", 0)],
         "duplicate-name: generator names ['a'] repeat"),
    ],
    ids=["loose-arrow", "repeated-name"],
)
def test_refuses_in_validates_words(gens, arrows, report):
    """No such complex reaches the drawing: it is refused where it is built."""
    with pytest.raises(CFKError) as refused:
        FilteredComplex([Generator(*g) for g in gens], [Arrow(*a) for a in arrows])
    assert str(refused.value) == report


@st.composite
def graded_complexes(draw, alphabet="abxy'1"):
    """Up to 8 generators under distinct names over alphabet in shuffled
    order, so that name order and position order differ, with some of the
    arrows the Maslov rule allows (any upower it pins, filtration unchecked)."""
    names = draw(st.lists(st.text(alphabet, min_size=1, max_size=3), max_size=8, unique=True))
    gens = [Generator(n, draw(st.integers(-2, 2)), draw(st.integers(-3, 3))) for n in names]
    gens = draw(st.permutations(gens))
    allowed = [
        Arrow(s.name, t.name, (t.maslov - s.maslov + 1) // 2)
        for s in gens for t in gens
        if (t.maslov - s.maslov + 1) % 2 == 0
    ]
    keep = draw(st.lists(st.booleans(), min_size=len(allowed), max_size=len(allowed)))
    return FilteredComplex(gens, [a for a, k in zip(allowed, keep) if k])


STAIRCASES = st.lists(st.integers(1, 3), max_size=3).map(
    lambda half: Staircase(tuple(half + half[::-1]))
)


# characters that XML text must escape, and the quotes, which it need not
MARKUP = "ab&<>\"'"


@given(graded_complexes(MARKUP))
@settings(deadline=None)
def test_titles_read_back_as_the_names(complex):
    root = ET.fromstring(svg_for_complex(complex))
    titles = [title.text for title in root.iterfind(".//svg:circle/svg:title", SVG_NS)]
    assert titles == sorted(complex.names())


@given(
    graded_complexes()
    | graded_complexes(MARKUP)
    | st.builds(scrambled_double, st.integers(1, 6), st.integers(0, 1 << 16), st.integers(1, 16))
    | STAIRCASES.map(from_staircase).map(lambda c: tensor(c, c))
)
@settings(deadline=None)
def test_matches_the_named_drawing(complex):
    assert svg_for_complex(complex) == reference_svg_for_complex(complex)
