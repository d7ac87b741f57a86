import json
import re
from collections import Counter
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
    complex_from_json_dict,
    splitting_plan,
    from_staircase,
    isomorphic_up_to_shift,
    remove_diagonals,
    split_summands,
    tensor,
    to_json_dict,
    validate,
)

from cfktools import filtered

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
    scrambled_double,
)
from .oracles import (
    reference_remove_diagonals,
    reference_split_summands,
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
    """remove_diagonals' arrows (source, target, upower) after each plan pair.

    Each pair's arrows are the previous pair's, the input's at first, with the
    toggles ``_clear_pair`` returns applied.  Every pair but the last leaves
    arrows toward earlier subsets that depend on which moves it chose; the last
    result is the returned complex's.
    """
    steps = []
    arrows = {(a.source, a.target, a.upower) for a in complex.arrows}
    clear_pair = filtered._clear_pair

    def record(*args):
        nonlocal arrows
        toggles = clear_pair(*args)
        arrows = arrows ^ {(a.source, a.target, a.upower) for a in toggles}
        steps.append(arrows)
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
        report = validate(c)
        assert report is not None and report.startswith("d-squared")

    def test_duplicate_names(self):
        c = FilteredComplex([Generator("a", 0, 0), Generator("a", 1, 1)], [])
        report = validate(c)
        assert report is not None and report.startswith("duplicate-name")

    def test_unknown_generator(self):
        c = FilteredComplex([Generator("a", 0, 0)], [Arrow("a", "ghost", 0)])
        report = validate(c)
        assert report is not None and report.startswith("unknown-generator")


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
        init = FilteredComplex.__init__

        def counting(self, *args):
            built.append(args)
            init(self, *args)

        with mock.patch.object(FilteredComplex, "__init__", counting):
            remove_diagonals(complex, plan)
        assert len(built) <= 1

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


class TestIsomorphism:
    def test_shift_invariance(self):
        shifted = FilteredComplex(
            [Generator(g.name + "'", g.alexander + 2, g.maslov - 4) for g in TREFOIL.generators],
            [Arrow(a.source + "'", a.target + "'", a.upower) for a in TREFOIL.arrows],
        )
        assert isomorphic_up_to_shift(TREFOIL, shifted)

    def test_distinguishes_arrow_structure(self):
        other = FilteredComplex(TREFOIL.generators, [])
        assert not isomorphic_up_to_shift(TREFOIL, other)


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
