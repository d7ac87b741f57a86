import copy
import json
import re
from collections import Counter
from itertools import product
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from cfktools import (
    Arrow,
    BasisChange,
    CFKError,
    FilteredComplex,
    Generator,
    IllegalBasisChange,
    InadmissiblePlan,
    Staircase,
    basis_change,
    build_double_complex,
    complex_from_json_dict,
    splitting_plan,
    from_staircase,
    remove_diagonals,
    split_summands,
    tensor,
    to_json_dict,
    validate,
)

from cfktools import filtered
from cfktools.filtered import _staircase_of

from .complex_fixtures import (
    BOX_OVER_CORNER_PLAN,
    BOX_PAIR_LEVEL_PLAN,
    BOX_PAIR_STEP_PLAN,
    LEVEL_PAIR_MOVE_TABLE,
    box_over_corner,
    box_over_corner_valid_patterns,
    box_pair_level,
    box_pair_level_valid_patterns,
    box_pair_step,
    box_pair_step_valid_patterns,
    legal_moves,
    scrambled_double,
    single_box,
    trefoil_with_mixed_box,
)
from .oracles import (
    _apply_move,
    isomorphic_up_to_shift,
    reference_complex_from_json_dict,
    reference_naming_defect,
    reference_remove_diagonals,
    reference_split_summands,
    reference_tensor,
    reference_validate,
    tensor_vertex_multiset,
)

TREFOIL = from_staircase(Staircase((1, 1)))

PALINDROMES = st.lists(st.integers(1, 3), max_size=3).map(
    lambda half: Staircase(tuple(half + half[::-1]))
)


def bigrading_profile(complex):
    return Counter((g.alexander, g.maslov) for g in complex.generators)


def arrow_profile(complex):
    return Counter(
        (
            complex.generator(a.source).alexander,
            complex.generator(a.source).maslov,
            complex.generator(a.target).alexander,
            complex.generator(a.target).maslov,
            a.upower,
        )
        for a in complex.arrows
    )


def cross_arrows(complex, plan):
    position = {name: k for k, subset in enumerate(plan) for name in subset}
    return [a for a in complex.arrows if position[a.source] != position[a.target]]


def after_each_pair(complex, plan):
    """remove_diagonals' (hi, lo, arrows) for each plan pair it clears.

    One entry per ``_clear_pair`` call: the pair of subsets and the arrows
    (source, target, upower) after it.  Each call's arrows are the previous
    call's, the input's at first, with the toggles it returns applied, read
    by name from the input's generator positions.  Every pair but the last
    leaves arrows toward earlier subsets that depend on which moves it chose;
    the last result is the returned complex's.
    """
    steps = []
    arrows = {(a.source, a.target, a.upower) for a in complex.arrows}
    names = complex.names()
    clear_pair = filtered._clear_pair

    def record(complex, residual, members, subset, hi, lo):
        nonlocal arrows
        toggles = clear_pair(complex, residual, members, subset, hi, lo)
        arrows = arrows ^ {(names[s], names[t], u) for s, t, u in toggles}
        steps.append((hi, lo, arrows))
        return toggles

    with mock.patch.object(filtered, "_clear_pair", record):
        final = remove_diagonals(complex, plan)
    assert arrows == {(a.source, a.target, a.upower) for a in final.arrows}
    return steps


def within_subset_arrows(complex, plan):
    position = {name: k for k, subset in enumerate(plan) for name in subset}
    return {a for a in complex.arrows if position[a.source] == position[a.target]}


@st.composite
def planned_complexes(draw):
    """2-7 generators in a random plan, with some of the arrows their
    gradings allow that do not run from an earlier subset to a later one."""
    count = draw(st.integers(2, 7))
    gens = [
        Generator(f"g{k}", draw(st.integers(-2, 2)), draw(st.integers(-3, 3)))
        for k in range(count)
    ]
    labels = draw(st.lists(st.integers(0, 3), min_size=count, max_size=count))
    plan = [[g.name for g, label in zip(gens, labels) if label == k] for k in sorted(set(labels))]
    position = {name: k for k, subset in enumerate(plan) for name in subset}
    allowed = []
    for s in gens:
        for t in gens:
            upower, odd = divmod(t.maslov - s.maslov + 1, 2)
            if (
                s != t
                and not odd
                and 0 <= upower
                and t.alexander - upower <= s.alexander
                and position[s.name] >= position[t.name]
            ):
                allowed.append(Arrow(s.name, t.name, upower))
    keep = draw(st.lists(st.booleans(), min_size=len(allowed), max_size=len(allowed)))
    return FilteredComplex(gens, [a for a, k in zip(allowed, keep) if k]), plan


NAMES = st.text(alphabet="abxy*'", max_size=3)
SMALL = st.integers(-3, 3)

# staircases, D(1..4) and the box fixtures, valid or not
FIXTURE_COMPLEXES = st.one_of(
    PALINDROMES.map(from_staircase),
    st.integers(1, 4).map(build_double_complex),
    st.sampled_from(
        [box_pair_level(*p) for p in product((0, 1), repeat=4)]
        + [box_pair_step(*p) for p in box_pair_step_valid_patterns()]
        + [box_over_corner(*p) for p in box_over_corner_valid_patterns()]
        + [trefoil_with_mixed_box(), single_box()]
    ),
)


@st.composite
def loose_complexes(draw, names="abc"):
    """Generators whose names, drawn from names, may repeat, and arrows that
    may repeat or have a loose end (a name no generator has)."""
    gens = draw(st.lists(st.builds(Generator, st.sampled_from(names), SMALL, SMALL), max_size=5))
    ends = st.sampled_from([*names, "ghost", "x*y"])
    arrows = draw(st.lists(st.builds(Arrow, ends, ends, st.integers(-1, 2)), max_size=8))
    return gens, arrows + draw(st.lists(st.sampled_from(arrows), max_size=3) if arrows else st.just([]))


def _legal_arrows(complex):
    """Every arrow the complex's gradings allow: the upower the Maslov rule
    pins, at least 0, raising no filtration level."""
    return [
        Arrow(s.name, t.name, upower)
        for s in complex.generators
        for t in complex.generators
        for upower, odd in [divmod(t.maslov - s.maslov + 1, 2)]
        if not odd and upower >= 0 and t.alexander - upower <= s.alexander
    ]


@st.composite
def toggled_complexes(draw):
    """A staircase's complex, its square or a double, its generators
    shuffled, with one to three arrows its gradings allow toggled, so that
    its d² may no longer be zero but every arrow keeps the rules."""
    complex = draw(
        PALINDROMES.map(from_staircase)
        | PALINDROMES.map(lambda s: tensor(from_staircase(s), from_staircase(s)))
        | st.integers(1, 3).map(build_double_complex)
    )
    complex = FilteredComplex(draw(st.permutations(complex.generators)), complex.arrows)
    legal = _legal_arrows(complex)
    toggles = draw(st.lists(st.sampled_from(legal), min_size=1, max_size=3)) if legal else []
    return complex.with_arrows(complex.arrows ^ set(toggles))


def _named_part(gens, arrows):
    """The first generator of each name, and the arrows between their names."""
    first = {}
    for g in gens:
        first.setdefault(g.name, g)
    return list(first.values()), [a for a in arrows if a.source in first and a.target in first]


def _build_by_name(gens, arrows):
    """The complexes the constructor, with_arrows and complex_from_json_dict
    build from gens and arrows (given once each); each raises CFKError if a
    name repeats or an arrow end names no generator."""
    document = {
        "generators": [{"name": n, "alexander": a, "maslov": m} for n, a, m in gens],
        "arrows": [{"from": s, "to": t, "upower": u} for s, t, u in arrows],
    }
    return [
        lambda: FilteredComplex(gens, arrows),
        lambda: FilteredComplex(gens, []).with_arrows(arrows),
        lambda: complex_from_json_dict(document),
    ]


class TestPublicViews:
    """A complex reads back exactly the generators and arrows it was built
    from, whatever validate would say of their gradings; a repeated name or
    an arrow end that names no generator is refused where it is built, in
    validate's words."""

    def test_repeated_names_loose_ends_and_duplicate_arrows(self):
        gens = [Generator("a", 0, 0), Generator("b", 0, -1), Generator("a", 1, 1)]
        arrows = [Arrow("a", "b", 0), Arrow("b", "ghost", 0), Arrow("a", "b", 0)]
        # a repeated name is reported before a loose end
        with pytest.raises(CFKError, match=r"^duplicate-name: generator names \['a'\] repeat$"):
            FilteredComplex(gens, arrows)
        with pytest.raises(CFKError, match="^unknown-generator: arrow b->ghost has a loose end$"):
            FilteredComplex(gens[:2], arrows)
        c = FilteredComplex(gens[:2], [arrows[0], arrows[2]])
        with pytest.raises(CFKError, match="^unknown-generator: arrow b->ghost has a loose end$"):
            c.with_arrows(arrows)
        assert c.generators == tuple(gens[:2])
        assert c.arrows == frozenset({Arrow("a", "b", 0)})
        assert c.names() == ["a", "b"] and len(c) == 2
        assert c.generator("a") == Generator("a", 0, 0)
        with pytest.raises(KeyError):
            c.generator("ghost")
        assert repr(c) == "<FilteredComplex 2 generators, 1 arrows>"

    def test_complex_is_frozen_and_builds_each_view_once(self):
        c = FilteredComplex(TREFOIL.generators, TREFOIL.arrows)
        for name in ("_arrows", "_names", "arrows", "_lookup"):
            with pytest.raises(AttributeError):
                setattr(c, name, None)
            with pytest.raises(AttributeError):
                delattr(c, name)
        assert c == TREFOIL and validate(c) is None
        assert c.generators is c.generators and c.arrows is c.arrows
        assert c._neighbours is c._neighbours and c._lookup is c._lookup
        # the name index is passed on to a complex with the same generators
        assert c._with(c._arrows)._lookup is c._lookup

    def test_views_of_plain_tuples_are_named_tuples(self):
        """The views are built from positions, not kept from the caller's
        tuples, so a complex built from plain tuples reads and writes back."""
        gens = [("s0", 1, 0), ("s1", 0, -1), ("s2", -1, -2)]
        arrows = [("s1", "s0", 1), ("s1", "s2", 0)]
        for c in (FilteredComplex(gens, arrows), FilteredComplex(gens, []).with_arrows(arrows)):
            assert all(type(g) is Generator for g in c.generators)
            assert all(type(a) is Arrow for a in c.arrows)
            assert c.generator("s1") == Generator("s1", 0, -1)
            assert c == TREFOIL and c.with_arrows(arrows) == TREFOIL
            assert complex_from_json_dict(to_json_dict(c)) == c
        loose = (a for a in [("s1", "s0", 1), ("s1", "ghost", 0)])
        with pytest.raises(CFKError, match="^unknown-generator: arrow s1->ghost has a loose end$"):
            FilteredComplex(gens, loose)

    @given(loose_complexes())
    def test_every_named_entry_refuses_the_oracles_defect(self, drawn):
        """The constructor, with_arrows and complex_from_json_dict refuse
        exactly the drawn lists the oracle finds a defect in, with its text;
        a document's duplicate arrows are reported before any such defect."""
        gens, arrows = drawn
        once = list(dict.fromkeys(arrows))
        defect = reference_naming_defect(gens, once)
        for build in _build_by_name(gens, once):
            if defect:
                with pytest.raises(CFKError) as refused:
                    build()
                assert str(refused.value) == defect
            else:
                c = build()
                assert c.generators == tuple(gens)
                assert c.arrows == frozenset(arrows)
        if len(once) < len(arrows):
            with pytest.raises(ValueError, match="^malformed complex document: duplicate arrows$"):
                _build_by_name(gens, arrows)[2]()

    @given(loose_complexes())
    def test_views_of_drawn_complexes(self, drawn):
        gens, arrows = _named_part(*drawn)
        c = FilteredComplex(gens, arrows)
        assert c.generators == tuple(gens)
        assert c.arrows == frozenset(arrows)
        assert c.names() == [g.name for g in gens] and len(c) == len(gens)
        last = {g.name: g for g in gens}
        assert all(c.generator(name) == g for name, g in last.items())
        again = FilteredComplex(list(gens), list(reversed(arrows)))
        assert again == c and hash(again) == hash(c)
        assert c.with_arrows(arrows) == c and hash(c.with_arrows(arrows)) == hash(c)
        other = c.with_arrows(arrows[1:])
        assert (other == c) == (frozenset(arrows[1:]) == frozenset(arrows))
        assert other == FilteredComplex(gens, arrows[1:])
        assert hash(other) == hash(FilteredComplex(gens, arrows[1:]))

    @given(SMALL, SMALL, st.integers(0, 2), st.integers(0, 2), SMALL, SMALL, st.data())
    def test_basis_change_of_drawn_complexes(self, ax, mx, shift, lift, ac, mc, data):
        """Arrows into y copy onto x and arrows out of x copy onto y, each
        toggled in on its own."""
        x, y = Generator("x", ax, mx), Generator("y", ax - shift + lift, mx - 2 * shift)
        gens = data.draw(st.permutations([x, y, Generator("c", ac, mc)]))
        ends = st.sampled_from(["x", "y", "c"])
        arrows = data.draw(st.lists(st.builds(Arrow, ends, ends, st.integers(-1, 2)), max_size=8))
        c = FilteredComplex(gens, arrows)
        after = basis_change(c, BasisChange(x="x", y="y"))
        assert after.generators == c.generators
        moved = _apply_move(set(c.arrows), "x", "y", shift)
        assert after.arrows == {Arrow(*a) for a in moved}
        assert after == FilteredComplex(gens, after.arrows)
        assert hash(after) == hash(FilteredComplex(gens, after.arrows))
        back = basis_change(after, BasisChange(x="x", y="y"))
        assert back == c and hash(back) == hash(c)

    @given(FIXTURE_COMPLEXES, st.data())
    @settings(deadline=None, max_examples=50)
    def test_basis_change_equality_and_hash(self, complex, data):
        moves = legal_moves(complex)
        assume(moves)
        move = data.draw(st.sampled_from(moves))
        after = basis_change(complex, move)
        rebuilt = FilteredComplex(complex.generators, after.arrows)
        assert after == rebuilt and hash(after) == hash(rebuilt)
        assert (after == complex) == (after.arrows == complex.arrows)
        back = basis_change(after, move)
        assert back == complex and hash(back) == hash(complex)



class TestValueTypes:
    """Generator and Arrow order, hash and print as their field tuples."""

    @given(st.lists(st.tuples(NAMES, NAMES, SMALL)), st.lists(st.tuples(NAMES, SMALL, SMALL)))
    def test_sorting_is_field_tuple_order(self, arrows, generators):
        arrows = [Arrow(*a) for a in arrows]
        generators = [Generator(*g) for g in generators]
        assert sorted(arrows) == sorted(arrows, key=lambda a: (a.source, a.target, a.upower))
        assert sorted(generators) == sorted(
            generators, key=lambda g: (g.name, g.alexander, g.maslov)
        )

    @given(st.tuples(NAMES, NAMES, SMALL), st.tuples(NAMES, SMALL, SMALL))
    def test_hash_is_the_field_tuple_hash(self, arrow, generator):
        for value in (Arrow(*arrow), Generator(*generator)):
            assert hash(value) == hash(tuple(value))

    def test_fields_are_read_only(self):
        arrow, generator = Arrow("a", "b", 0), Generator("a", 0, 0)
        with pytest.raises(AttributeError):
            arrow.upower = 1
        with pytest.raises(AttributeError):
            generator.name = "b"
        assert arrow == Arrow("a", "b", 0) and generator == Generator("a", 0, 0)

    def test_keyword_construction(self):
        assert Arrow(source="a", target="b", upower=2) == Arrow("a", "b", 2)
        assert Generator(name="a", alexander=-1, maslov=3) == Generator("a", -1, 3)
        assert Arrow("a", "b", 2)._replace(upower=0) == Arrow("a", "b", 0)

    def test_repr(self):
        assert repr(Arrow("a", "b", 0)) == "Arrow(source='a', target='b', upower=0)"
        assert repr(Generator("x1", 1, 0)) == "Generator(name='x1', alexander=1, maslov=0)"


class TestFromStaircase:
    def test_trefoil(self):
        assert validate(TREFOIL) is None
        assert len(TREFOIL.generators) == 3
        middle = [g for g in TREFOIL.generators if g.maslov == -1]
        assert len(middle) == 1
        upowers = sorted(a.upower for a in TREFOIL.arrows if a.source == middle[0].name)
        assert upowers == [0, 1]

    def test_unknot(self):
        c = from_staircase(Staircase(()))
        assert len(c.generators) == 1 and not c.arrows
        assert validate(c) is None

    def test_length_five(self):
        c = from_staircase(Staircase((1, 2, 2, 1)))
        assert len(c.generators) == 5 and len(c.arrows) == 4
        assert validate(c) is None

    def test_column_reproduces_vertex_heights(self):
        from cfktools import vertices

        stair = Staircase((2, 1, 1, 2))
        c = from_staircase(stair)
        assert sorted(g.alexander for g in c.generators) == sorted(
            v.j - v.i for v in vertices(stair)
        )


class TestValidate:
    def test_filtration_violation(self):
        c = FilteredComplex(
            [Generator("p", 0, 0), Generator("q", 2, -1)], [Arrow("p", "q", 0)]
        )
        report = validate(c)
        assert report is not None and report.startswith("filtration")

    def test_negative_upower(self):
        c = FilteredComplex(
            [Generator("p", 0, 0), Generator("q", -2, -3)], [Arrow("p", "q", -1)]
        )
        report = validate(c)
        assert report is not None and report.startswith("filtration")

    def test_maslov_violation(self):
        c = FilteredComplex(
            [Generator("p", 0, 0), Generator("q", 0, 0)], [Arrow("p", "q", 0)]
        )
        report = validate(c)
        assert report is not None and report.startswith("maslov")

    def test_d_squared_violation(self):
        c = FilteredComplex(
            [Generator("a", 0, 0), Generator("b", 0, -1), Generator("c", 0, -2)],
            [Arrow("a", "b", 0), Arrow("b", "c", 0)],
        )
        assert validate(c) == "d-squared: d²(a) contains [('c', 0)]"

    @given(toggled_complexes())
    @settings(deadline=None)
    def test_d_squared_report_matches_the_reference(self, complex):
        report = validate(complex)
        assert report == reference_validate(complex)
        assert report is None or report.startswith("d-squared")

    @given(toggled_complexes(), st.data())
    @settings(deadline=None)
    def test_maslov_report_matches_the_reference(self, complex, data):
        gens = st.sampled_from(complex.generators)
        off_rule = st.builds(
            lambda s, t, u: Arrow(s.name, t.name, u), gens, gens, st.integers(-2, 3)
        ).filter(
            lambda a: complex.generator(a.target).maslov - 2 * a.upower
            != complex.generator(a.source).maslov - 1
        )
        broken = complex.with_arrows(complex.arrows | set(data.draw(st.lists(off_rule, min_size=1, max_size=2))))
        report = validate(broken)
        assert report == reference_validate(broken)
        assert report.startswith("maslov")

    def test_duplicate_names(self):
        """Refused in validate's words where the complex is built."""
        with pytest.raises(CFKError, match="^duplicate-name"):
            FilteredComplex([Generator("a", 0, 0), Generator("a", 1, 1)], [])

    def test_unknown_generator(self):
        """Refused in validate's words where the complex is built."""
        with pytest.raises(CFKError, match="^unknown-generator"):
            FilteredComplex([Generator("a", 0, 0)], [Arrow("a", "ghost", 0)])


class TestTensor:
    def test_trefoil_square(self):
        square = tensor(TREFOIL, TREFOIL)
        assert len(square.generators) == 9
        assert validate(square) is None

    def test_unit(self):
        unit = from_staircase(Staircase(()))
        square = tensor(TREFOIL, unit)
        assert bigrading_profile(square) == bigrading_profile(TREFOIL)
        assert arrow_profile(square) == arrow_profile(TREFOIL)

    def test_25_generators_match_vertex_multiset(self):
        t34 = Staircase((1, 2, 2, 1))
        square = tensor(from_staircase(t34), from_staircase(t34))
        assert len(square.generators) == 25
        assert validate(square) is None
        expected = Counter(
            (v.j - v.i, v.gr - 2 * v.i) for v in tensor_vertex_multiset(t34, t34)
        )
        assert bigrading_profile(square) == expected

    @given(PALINDROMES, PALINDROMES)
    def test_gradings_match_vertex_multiset(self, s1, s2):
        product = tensor(from_staircase(s1), from_staircase(s2))
        expected = Counter((v.j - v.i, v.gr - 2 * v.i) for v in tensor_vertex_multiset(s1, s2))
        assert bigrading_profile(product) == expected

    @given(FIXTURE_COMPLEXES, FIXTURE_COMPLEXES)
    @settings(deadline=None, max_examples=60)
    def test_matches_reference(self, c1, c2):
        got, want = tensor(c1, c2), reference_tensor(c1, c2)
        assert got.generators == want.generators
        assert got.arrows == want.arrows
        assert to_json_dict(got) == to_json_dict(want)
        assert got == want and hash(got) == hash(want)

    @given(loose_complexes(["a", "b", "a*a"]), loose_complexes(["a", "b", "a*a"]))
    def test_matches_reference_on_unchecked_complexes(self, d1, d2):
        """Factors of any gradings, whose names may hold a '*': the product
        is refused exactly when its names repeat (a * a*a and a*a * a are
        both a*a*a), in validate's words, and otherwise is the reference's."""
        c1, c2 = (FilteredComplex(*_named_part(*d)) for d in (d1, d2))
        names = [f"{g}*{h}" for g in c1.names() for h in c2.names()]
        defect = reference_naming_defect([(n,) for n in names], [])
        if defect:
            with pytest.raises(CFKError) as refused:
                tensor(c1, c2)
            assert str(refused.value) == defect
            with pytest.raises(CFKError):
                reference_tensor(c1, c2)
            return
        got, want = tensor(c1, c2), reference_tensor(c1, c2)
        assert got.generators == want.generators
        assert got.arrows == want.arrows
        assert got == want and hash(got) == hash(want)
        assert validate(got) == validate(want)

    def test_commutative_associative_profiles(self):
        a = from_staircase(Staircase((1, 1)))
        b = from_staircase(Staircase((1, 2, 2, 1)))
        c = from_staircase(Staircase((2, 2)))
        assert bigrading_profile(tensor(a, b)) == bigrading_profile(tensor(b, a))
        assert arrow_profile(tensor(a, b)) == arrow_profile(tensor(b, a))
        left = tensor(tensor(a, b), c)
        right = tensor(a, tensor(b, c))
        assert bigrading_profile(left) == bigrading_profile(right)
        assert arrow_profile(left) == arrow_profile(right)


class TestBasisChange:
    def test_published_move_clears_one_pattern(self):
        c = box_pair_level(1, 0, 1, 0)
        assert validate(c) is None
        after = basis_change(c, BasisChange(x="x", y="b"))
        assert validate(after) is None
        assert not cross_arrows(after, BOX_PAIR_LEVEL_PLAN)

    @pytest.mark.parametrize("pattern,moves", sorted(LEVEL_PAIR_MOVE_TABLE.items()))
    def test_published_move_table(self, pattern, moves):
        c = box_pair_level(*pattern)
        assert validate(c) is None
        for x, y in moves:
            c = basis_change(c, BasisChange(x=x, y=y))
        assert validate(c) is None
        assert not cross_arrows(c, BOX_PAIR_LEVEL_PLAN)

    def test_untouched_generators_leave_arrows_alone(self):
        c = box_pair_level(0, 0, 0, 0)
        after = basis_change(c, BasisChange(x="z", y="d"))
        # z has no outgoing arrows and d no incoming beyond its own box,
        # whose arrows into d duplicate onto z and stay legal
        assert validate(after) is None
        c2 = FilteredComplex(
            [Generator("a", 0, 0), Generator("b", 0, 0), Generator("c", 0, -1)],
            [],
        )
        assert basis_change(c2, BasisChange(x="a", y="b")).arrows == c2.arrows

    def test_involution(self):
        c = box_pair_level(1, 1, 1, 1)
        move = BasisChange(x="x", y="b")
        assert basis_change(basis_change(c, move), move).arrows == c.arrows

    def test_illegal_moves(self):
        c = box_pair_level(0, 0, 0, 0)
        with pytest.raises(IllegalBasisChange):
            basis_change(c, BasisChange(x="b", y="x"))  # filtration points up
        with pytest.raises(IllegalBasisChange):
            basis_change(c, BasisChange(x="w", y="b"))  # odd grading gap
        with pytest.raises(IllegalBasisChange):
            basis_change(c, BasisChange(x="b", y="b"))


class TestRemoveDiagonals:
    @pytest.mark.parametrize("pattern", box_pair_level_valid_patterns())
    def test_level_pair(self, pattern):
        c = box_pair_level(*pattern)
        assert validate(c) is None
        out = remove_diagonals(c, BOX_PAIR_LEVEL_PLAN)
        assert validate(out) is None
        assert not cross_arrows(out, BOX_PAIR_LEVEL_PLAN)
        assert len(split_summands(out)) == 2

    @pytest.mark.parametrize("pattern", box_pair_step_valid_patterns())
    def test_step_pair(self, pattern):
        out = remove_diagonals(box_pair_step(*pattern), BOX_PAIR_STEP_PLAN)
        assert validate(out) is None
        assert not cross_arrows(out, BOX_PAIR_STEP_PLAN)

    @pytest.mark.parametrize("pattern", box_over_corner_valid_patterns())
    def test_box_over_corner(self, pattern):
        out = remove_diagonals(box_over_corner(*pattern), BOX_OVER_CORNER_PLAN)
        assert validate(out) is None
        assert not cross_arrows(out, BOX_OVER_CORNER_PLAN)

    def test_invalid_patterns_fail_validate(self):
        import itertools

        valid = set(box_pair_level_valid_patterns())
        for pattern in itertools.product((0, 1), repeat=4):
            report = validate(box_pair_level(*pattern))
            if pattern in valid:
                assert report is None
            else:
                assert report is not None and report.startswith("d-squared")

    def test_clean_complex_unchanged(self):
        c = box_pair_level(0, 0, 0, 0)
        assert remove_diagonals(c, BOX_PAIR_LEVEL_PLAN).arrows == c.arrows

    def test_rejects_non_partition(self):
        c = box_pair_level(0, 0, 0, 0)
        with pytest.raises(InadmissiblePlan):
            remove_diagonals(c, [["w", "x", "y"], ["a", "b", "c", "d"]])
        with pytest.raises(InadmissiblePlan):
            remove_diagonals(c, [["w", "x", "y", "z", "z"], ["a", "b", "c", "d"]])

    def test_rejects_wrong_direction(self):
        c = box_pair_level(1, 0, 1, 0)
        with pytest.raises(InadmissiblePlan):
            remove_diagonals(c, list(reversed(BOX_PAIR_LEVEL_PLAN)))

    @given(st.integers(1, 4), st.integers(0, 1 << 16), st.integers(1, 16))
    @settings(deadline=None)
    def test_matches_reference_on_scrambled_doubles(self, m, seed, count):
        complex, plan = scrambled_double(m, seed, count), splitting_plan(m)
        assert after_each_pair(complex, plan) == reference_remove_diagonals(complex, plan)

    @pytest.mark.parametrize(
        "build, plan, pattern",
        [(box_pair_level, BOX_PAIR_LEVEL_PLAN, p) for p in box_pair_level_valid_patterns()]
        + [(box_pair_step, BOX_PAIR_STEP_PLAN, p) for p in box_pair_step_valid_patterns()]
        + [(box_over_corner, BOX_OVER_CORNER_PLAN, p) for p in box_over_corner_valid_patterns()],
    )
    def test_matches_reference_on_boxes(self, build, plan, pattern):
        complex = build(*pattern)
        assert after_each_pair(complex, plan) == reference_remove_diagonals(complex, plan)

    @given(st.integers(1, 5), st.integers(0, 1 << 16), st.integers(1, 16))
    @settings(deadline=None, max_examples=40)
    def test_keeps_the_within_subset_arrows_of_scrambled_doubles(self, m, seed, count):
        complex, plan = scrambled_double(m, seed, count), splitting_plan(m)
        assert remove_diagonals(complex, plan).arrows == within_subset_arrows(complex, plan)

    @pytest.mark.parametrize(
        "build, plan, pattern",
        [(box_pair_level, BOX_PAIR_LEVEL_PLAN, p) for p in box_pair_level_valid_patterns()]
        + [(box_pair_step, BOX_PAIR_STEP_PLAN, p) for p in box_pair_step_valid_patterns()]
        + [(box_over_corner, BOX_OVER_CORNER_PLAN, p) for p in box_over_corner_valid_patterns()],
    )
    def test_keeps_the_within_subset_arrows_of_boxes(self, build, plan, pattern):
        complex = build(*pattern)
        assert remove_diagonals(complex, plan).arrows == within_subset_arrows(complex, plan)

    def test_builds_one_complex(self):
        complex, plan = scrambled_double(4, 7, 16), splitting_plan(4)
        built = []
        init, build = FilteredComplex.__init__, FilteredComplex._build.__func__

        def counting(self, *args):
            built.append(args)
            init(self, *args)

        def counting_build(cls, *args):
            built.append(args)
            return build(cls, *args)

        with mock.patch.object(FilteredComplex, "__init__", counting), \
                mock.patch.object(FilteredComplex, "_build", classmethod(counting_build)):
            remove_diagonals(complex, plan)
        assert len(built) <= 1

    def test_clears_no_pair_of_the_clean_doubles(self):
        def unexpected(*args):
            raise AssertionError(f"cleared subset {args[4]} against subset {args[5]}")

        with mock.patch.object(filtered, "_clear_pair", unexpected):
            for m in range(1, 201):
                clean = build_double_complex(m)
                assert remove_diagonals(clean, splitting_plan(m)) == clean, m

    def test_refuses_a_pair_whose_arrows_survive(self):
        """A pair left uncleared keeps the residual's highest subset where it was."""
        complex, plan = scrambled_double(2, 7, 10), splitting_plan(2)
        assert cross_arrows(complex, plan)
        with mock.patch.object(filtered, "_clear_pair", lambda *args: set()), \
                pytest.raises(InadmissiblePlan, match="^cross arrows survived elimination: "):
            remove_diagonals(complex, plan)

    def test_unsolvable_pair(self):
        """y->t has no candidate move: t's Maslov parity differs from y's."""
        complex = FilteredComplex(
            [Generator("t", 0, -1), Generator("x", 0, 0), Generator("y", 0, 0)],
            [Arrow("x", "t", 0), Arrow("y", "t", 0)],
        )
        assert validate(complex) is None
        message = "^no basis-change sequence clears arrows from subset 2 to subset 0$"
        with pytest.raises(InadmissiblePlan, match=message):
            remove_diagonals(complex, [["t"], ["x"], ["y"]])

    @given(planned_complexes())
    @settings(deadline=None, max_examples=500)
    def test_matches_reference_on_random_complexes(self, drawn):
        complex, plan = drawn
        assume(len(plan) > 1 and validate(complex) is None)
        try:
            expected = reference_remove_diagonals(complex, plan)
        except AssertionError as failure:
            pair = re.fullmatch(r"no moves clear subset (\d+) from subset (\d+)", str(failure))
            message = "^no basis-change sequence clears arrows from subset {} to subset {}$"
            with pytest.raises(InadmissiblePlan, match=message.format(*pair.groups())):
                remove_diagonals(complex, plan)
        else:
            assert after_each_pair(complex, plan) == expected


@st.composite
def shuffled_staircase_unions(draw):
    """Disjoint union of prefixed staircase complexes, generators shuffled."""
    gens, arrows = [], []
    for k, stair in enumerate(draw(st.lists(PALINDROMES, min_size=1, max_size=4))):
        c = from_staircase(stair)
        gens += [Generator(f"c{k}{g.name}", g.alexander, g.maslov) for g in c.generators]
        arrows += [Arrow(f"c{k}{a.source}", f"c{k}{a.target}", a.upower) for a in c.arrows]
    return FilteredComplex(draw(st.permutations(gens)), arrows)


@st.composite
def shuffled_scrambled_doubles(draw):
    c = scrambled_double(draw(st.integers(1, 3)), draw(st.integers(0, 1 << 16)))
    return FilteredComplex(draw(st.permutations(c.generators)), c.arrows)


class TestSplitSummands:
    @given(st.one_of(shuffled_staircase_unions(), shuffled_scrambled_doubles()))
    @settings(deadline=None)
    def test_matches_reference(self, complex):
        got = split_summands(complex)
        want = reference_split_summands(complex)
        assert [c.generators for c in got] == [c.generators for c in want]
        assert [c.arrows for c in got] == [c.arrows for c in want]

    def test_trefoil_single_component(self):
        assert len(split_summands(TREFOIL)) == 1

    def test_reassembly(self):
        c = box_pair_level(0, 0, 0, 0)
        parts = split_summands(c)
        assert [p.names() for p in parts] == [["w", "x", "y", "z"], ["a", "b", "c", "d"]]
        assert [g for p in parts for g in p.generators] == list(c.generators)
        assert frozenset().union(*(p.arrows for p in parts)) == c.arrows
        for p in parts:
            assert all(a.source in p.names() and a.target in p.names() for a in p.arrows)


@st.composite
def near_trefoils(draw):
    """The trefoil with its gradings shifted, at most one grading moved, and
    up to two arrows toggled: its own, or one with the upower off by one or
    the ends swapped."""
    da, dm = draw(SMALL), draw(SMALL)
    moved = draw(st.integers(-1, 5))  # index into the six gradings; -1 moves none
    by = draw(st.sampled_from([-2, -1, 1, 2]))
    gens = [
        Generator(g.name, g.alexander + da + by * (moved == 2 * k),
                  g.maslov + dm + by * (moved == 2 * k + 1))
        for k, g in enumerate(TREFOIL.generators)
    ]
    candidates = sorted(
        TREFOIL.arrows
        | {a._replace(upower=a.upower + 1) for a in TREFOIL.arrows}
        | {Arrow(a.target, a.source, a.upower) for a in TREFOIL.arrows}
    )
    toggled = draw(st.lists(st.sampled_from(candidates), unique=True, max_size=2))
    return FilteredComplex(draw(st.permutations(gens)), TREFOIL.arrows ^ set(toggled))


class TestIsomorphism:
    """_staircase_of reads a complex back as the staircase whose complex it is,
    up to renaming and a constant shift of each grading, and agrees with the
    permutation search of the oracle."""

    def test_shift_invariance(self):
        shifted = FilteredComplex(
            [Generator(g.name + "'", g.alexander + 2, g.maslov - 4) for g in TREFOIL.generators],
            [Arrow(a.source + "'", a.target + "'", a.upower) for a in TREFOIL.arrows],
        )
        assert _staircase_of(shifted) == Staircase((1, 1))

    def test_distinguishes_arrow_structure(self):
        other = FilteredComplex(TREFOIL.generators, [])
        assert _staircase_of(other) is None

    @given(PALINDROMES, SMALL, SMALL, st.data())
    def test_reads_back_renamed_shuffled_and_shifted_staircases(self, stair, da, dm, data):
        c = from_staircase(stair)
        gens = data.draw(st.permutations(c.generators))
        rename = {g.name: f"g{k}" for k, g in enumerate(data.draw(st.permutations(gens)))}
        disguised = FilteredComplex(
            [Generator(rename[g.name], g.alexander + da, g.maslov + dm) for g in gens],
            [Arrow(rename[a.source], rename[a.target], a.upower) for a in c.arrows],
        )
        assert _staircase_of(disguised) == stair

    def test_unknot_and_empty_complex(self):
        assert _staircase_of(from_staircase(Staircase(()))) == Staircase(())
        assert _staircase_of(FilteredComplex([Generator("a", 3, -2)], [])) == Staircase(())
        assert _staircase_of(FilteredComplex([], [])) is None

    def test_refuses_what_is_no_staircase(self):
        # a box: two generators share Alexander grading 0
        assert _staircase_of(single_box()) is None
        # an Alexander tie: the walk would take a zero step
        tie = FilteredComplex(
            [Generator("s0", 1, 0), Generator("s1", 0, -1), Generator("s2", 0, 0)],
            [Arrow("s1", "s0", 1), Arrow("s1", "s2", 0)],
        )
        assert _staircase_of(tie) is None
        # the right walk and gradings, but one arrow's upower is off
        off = TREFOIL.with_arrows([Arrow("s1", "s0", 2), Arrow("s1", "s2", 0)])
        assert _staircase_of(off) is None
        # a Maslov grading off by two
        moved = [g._replace(maslov=g.maslov + 2 * (g.name == "s2")) for g in TREFOIL.generators]
        assert _staircase_of(FilteredComplex(moved, TREFOIL.arrows)) is None

    @given(near_trefoils())
    def test_trefoil_test_matches_the_oracle_near_the_trefoil(self, complex):
        want = isomorphic_up_to_shift(complex, TREFOIL)
        assert (_staircase_of(complex) == Staircase((1, 1))) == want

    def test_trefoil_test_matches_the_oracle_on_the_doubles(self):
        """Every three-generator component of D(1..200), of scrambled doubles
        and of their cleaned forms, built as verify_splitting builds it."""
        complexes = [build_double_complex(m) for m in range(1, 201)]
        for m in range(1, 5):
            for seed in range(20):
                scrambled = scrambled_double(m, seed)
                complexes += [scrambled, remove_diagonals(scrambled, splitting_plan(m))]
        for complex in complexes:
            for positions in filtered._components(complex):
                if len(positions) != 3:
                    continue
                part = complex._subcomplex(positions)
                want = isomorphic_up_to_shift(part, TREFOIL)
                assert (_staircase_of(part) == Staircase((1, 1))) == want


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: (
        st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3)
    ),
    max_leaves=8,
)
# records that use the schema's keys, well typed or not, so that fuzzing
# reaches past the top level and loads complexes of every validity
_NAMES = st.sampled_from(["s0", "s1", "s2"])
_GRADINGS = st.integers(-2, 2)
JSON_RECORDS = st.dictionaries(
    st.sampled_from(["name", "alexander", "maslov", "from", "to", "upower"]),
    _NAMES | _GRADINGS | JSON_VALUES,
    max_size=6,
)
JSON_DOCUMENTS = (
    JSON_VALUES
    | st.dictionaries(
        st.sampled_from(["generators", "arrows"]),
        st.lists(JSON_RECORDS, max_size=3) | JSON_VALUES,
        max_size=2,
    )
    | st.fixed_dictionaries({
        "generators": st.lists(
            st.fixed_dictionaries({"name": _NAMES, "alexander": _GRADINGS, "maslov": _GRADINGS})
            | JSON_RECORDS,
            max_size=4,
        ),
        "arrows": st.lists(
            st.fixed_dictionaries({"from": _NAMES, "to": _NAMES, "upower": _GRADINGS})
            | JSON_RECORDS,
            max_size=4,
        ),
    })
)


# complexes valid or not, their names from loose_complexes' alphabet or
# shuffled, and their documents as json.load reads them
LOADABLE_DOCUMENTS = (
    PALINDROMES.map(lambda s: tensor(from_staircase(s), from_staircase(s)))
    | shuffled_scrambled_doubles()
    | loose_complexes().map(lambda drawn: FilteredComplex(*_named_part(*drawn)))
).map(lambda complex: json.loads(json.dumps(to_json_dict(complex))))
_WRONG_TYPES = st.sampled_from([True, False, 1.5, None, [0], ["s0"]])


@st.composite
def mutated_documents(draw):
    """A complex's document after one to three mutations, each a field
    retyped, a key dropped, a record replaced by a list, a str or None, the
    document made a list, an arrow repeated, a loose end or a repeated name
    (one that finds no record to change leaves the document as it is)."""
    document = draw(LOADABLE_DOCUMENTS)
    gens, arrows = document["generators"], document["arrows"]
    names = [g["name"] for g in gens] or ["s0"]
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(
            ["retype", "drop", "record", "top", "duplicate", "loose", "repeat"]
        ))
        records = draw(st.sampled_from([gens, arrows]))
        where = draw(st.integers(0, len(records)))
        if kind == "top":
            document = draw(st.sampled_from([[document], [gens, arrows], []]))
        elif kind == "duplicate" and arrows:
            arrows.insert(where % (len(arrows) + 1), copy.copy(draw(st.sampled_from(arrows))))
        elif kind == "loose":
            end = draw(st.sampled_from(names))
            ends = draw(st.sampled_from([(end, "ghost"), ("ghost", end)]))
            arrows.insert(where % (len(arrows) + 1), dict(zip(("from", "to"), ends), upower=0))
        elif kind == "repeat":
            gens.insert(where % (len(gens) + 1),
                        {"name": draw(st.sampled_from(names)), "alexander": 0, "maslov": 0})
        elif where < len(records):
            record = records[where]
            if kind == "record":
                records[where] = draw(st.sampled_from(
                    [list(record.values()) if isinstance(record, dict) else [], "s0", None]
                ))
            elif isinstance(record, dict) and record:
                key = draw(st.sampled_from(sorted(record)))
                if kind == "retype":
                    record[key] = draw(_WRONG_TYPES)
                else:
                    del record[key]
    return document


class TestJson:
    @given(
        PALINDROMES.map(from_staircase)
        | PALINDROMES.map(lambda s: tensor(from_staircase(s), from_staircase(s)))
        | shuffled_scrambled_doubles()
    )
    @settings(deadline=None)
    def test_valid_complexes_round_trip(self, complex):
        assert validate(complex) is None
        text = json.dumps(to_json_dict(complex))
        assert complex_from_json_dict(json.loads(text)) == complex

    @given(JSON_DOCUMENTS)
    @settings(deadline=None)
    def test_loader_raises_only_value_errors(self, document):
        try:
            complex = complex_from_json_dict(document)
        except (ValueError, CFKError):
            return
        report = validate(complex)
        assert report is None or isinstance(report, str)

    @given(LOADABLE_DOCUMENTS)
    @settings(deadline=None)
    def test_loads_the_complex_the_reference_loads(self, document):
        assert complex_from_json_dict(document) == reference_complex_from_json_dict(document)

    @given(mutated_documents())
    @settings(deadline=None)
    def test_refuses_as_the_reference_refuses(self, document):
        """The same exception class and text, for the first defect in
        document order, as the record-by-record reference."""
        try:
            want = reference_complex_from_json_dict(document)
        except (ValueError, CFKError) as exc:
            with pytest.raises(type(exc)) as refused:
                complex_from_json_dict(document)
            assert type(refused.value) is type(exc) and str(refused.value) == str(exc)
        else:
            assert complex_from_json_dict(document) == want

    def test_round_trip_bit_exact(self):
        c = tensor(TREFOIL, from_staircase(Staircase((1, 2, 2, 1))))
        blob = json.dumps(to_json_dict(c), sort_keys=True)
        back = complex_from_json_dict(json.loads(blob))
        assert back == c
        assert json.dumps(to_json_dict(back), sort_keys=True) == blob

    def test_rejects_malformed(self):
        with pytest.raises(ValueError):
            complex_from_json_dict({"generators": [{"name": "a"}], "arrows": []})
        with pytest.raises(ValueError):
            complex_from_json_dict({"generators": []})
        good = to_json_dict(TREFOIL)
        good["arrows"].append(dict(good["arrows"][0]))
        with pytest.raises(ValueError):
            complex_from_json_dict(good)

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("generators", "alexander", 1.0),
            ("generators", "alexander", True),
            ("generators", "maslov", "0"),
            ("generators", "maslov", 0.5),
            ("generators", "name", 0),
            ("generators", "name", None),
            ("arrows", "upower", 1.9),
            ("arrows", "upower", False),
            ("arrows", "upower", "1"),
            ("arrows", "from", 1),
            ("arrows", "to", ["s0"]),
        ],
    )
    def test_rejects_values_of_the_wrong_type(self, section, key, value):
        document = to_json_dict(TREFOIL)
        document[section][0][key] = value
        with pytest.raises(ValueError, match=f"'{key}' must be"):
            complex_from_json_dict(document)
