import itertools
import math
from collections import Counter

import pytest
from hypothesis import assume, given, settings, strategies as st

from cfktools import (
    AcyclicityReport,
    Arrow,
    CFKError,
    FilteredComplex,
    Generator,
    NotAKnotComplex,
    Staircase,
    alexander_torus,
    basis_change,
    build_double_complex,
    BasisChange,
    d1_closed_form,
    d1_general,
    delta_whitehead,
    from_staircase,
    hat_generator,
    hat_homology_ranks,
    hfk_hat_ranks,
    is_acyclic,
    remove_diagonals,
    split_summands,
    splitting_plan,
    staircase_from_alexander,
    tensor,
    validate,
    vertices,
)

from .complex_fixtures import (
    box_over_corner,
    box_pair_level,
    box_pair_step,
    legal_moves,
    scrambled_double,
    single_box,
    trefoil_with_mixed_box,
)
from .oracles import (
    reference_d1,
    reference_hat_generator,
    reference_hat_ranks,
    reference_is_acyclic,
    reference_probes,
)

TORUS_STAIRCASES = [
    staircase_from_alexander(alexander_torus(p, q))
    for q in range(3, 11)
    for p in range(2, q)
    if math.gcd(p, q) == 1
]

SMALL_PALINDROMES = st.lists(st.integers(1, 3), max_size=2).map(
    lambda half: Staircase(tuple(half + half[::-1]))
)

PALINDROMES = st.lists(st.integers(1, 4), max_size=3).map(
    lambda half: Staircase(tuple(half + half[::-1]))
)

# T(p,q)'s staircase has at least q generators, so q <= 17 reaches every
# coprime square of up to 289 generators
TORUS_SQUARES_TO_289 = [
    (p, q)
    for q in range(3, 18)
    for p in range(2, q)
    if math.gcd(p, q) == 1
    and (len(staircase_from_alexander(alexander_torus(p, q)).steps) + 1) ** 2 <= 289
]


class TestHfkHatRanks:
    @given(PALINDROMES)
    def test_staircase_has_rank_one_at_each_vertex(self, stair):
        expected = {(v.j - v.i, v.gr - 2 * v.i): 1 for v in vertices(stair)}
        assert hfk_hat_ranks(from_staircase(stair)) == expected

    @given(PALINDROMES)
    def test_tensor_square_is_the_convolution(self, stair):
        c = from_staircase(stair)
        factor = hfk_hat_ranks(c)
        expected = Counter()
        for (a1, m1), r1 in factor.items():
            for (a2, m2), r2 in factor.items():
                expected[(a1 + a2, m1 + m2)] += r1 * r2
        assert hfk_hat_ranks(tensor(c, c)) == expected

    def test_rejects_an_arrow_that_keeps_both_filtrations(self):
        c = FilteredComplex([Generator("a", 0, 0), Generator("b", 0, -1)], [Arrow("a", "b", 0)])
        assert validate(c) is None
        with pytest.raises(CFKError, match=r"^complex is not reduced: arrow a->b "):
            hfk_hat_ranks(c)

    def test_names_the_least_unreduced_arrow(self):
        c = FilteredComplex(
            [Generator("b", 1, 0), Generator("c", 1, -1), Generator("a", 1, -1)],
            [Arrow("b", "c", 0), Arrow("b", "a", 0)],
        )
        with pytest.raises(CFKError, match=r"arrow b->a "):
            hfk_hat_ranks(c)


def _torus_square(p, q):
    c = from_staircase(staircase_from_alexander(alexander_torus(p, q)))
    return tensor(c, c)


# Recorded canonical cycles.  The representative is a coset minimum, so it
# depends on the bit order of the grading-0 slice; only the last input has
# more than one candidate.
HAT_TERMS = {
    "D(1)": (lambda: build_double_complex(1), (("x1", 0),)),
    "D(2)": (lambda: build_double_complex(2), (("x1", 0),)),
    "D(3)": (lambda: build_double_complex(3), (("x1", 0),)),
    "D(4)": (lambda: build_double_complex(4), (("x1", 0),)),
    "T(3,4)^2": (lambda: _torus_square(3, 4), (("s0*s0", 0),)),
    "T(5,7)^2": (lambda: _torus_square(5, 7), (("s0*s0", 0),)),
    "scrambled D(2)": (lambda: scrambled_double(2, 20260811), (("x1", 0),)),
    "trefoil + mixed box": (trefoil_with_mixed_box, (("b3", 0),)),
}


class TestHatGenerator:
    @pytest.mark.parametrize("name", sorted(HAT_TERMS))
    def test_terms_match_recorded(self, name):
        build, terms = HAT_TERMS[name]
        assert hat_generator(build()).terms == terms

    def test_trefoil(self):
        cycle = hat_generator(from_staircase(Staircase((1, 1))))
        assert cycle.terms == (("s0", 0),) and cycle.maslov == 0

    def test_unknot(self):
        cycle = hat_generator(from_staircase(Staircase(())))
        assert cycle.terms == (("s0", 0),)

    def test_box_is_not_a_knot_complex(self):
        with pytest.raises(NotAKnotComplex):
            hat_generator(single_box())

    def test_tensor_square_rank_one(self):
        square = tensor(
            from_staircase(Staircase((1, 2, 2, 1))),
            from_staircase(Staircase((1, 2, 2, 1))),
        )
        assert hat_homology_ranks(square) == {0: 1}
        assert hat_generator(square).maslov == 0


class TestColumnAgainstReference:
    """The column homology against the per-level slices of tests/oracles.py."""

    @staticmethod
    def _check(complex):
        assert hat_homology_ranks(complex) == reference_hat_ranks(complex)
        assert hat_generator(complex).terms == reference_hat_generator(complex)

    @pytest.mark.parametrize("p,q", TORUS_SQUARES_TO_289)
    def test_torus_squares(self, p, q):
        self._check(_torus_square(p, q))

    @given(PALINDROMES, PALINDROMES)
    @settings(deadline=None, max_examples=40)
    def test_palindrome_tensors(self, a, b):
        self._check(tensor(from_staircase(a), from_staircase(b)))

    @given(st.integers(1, 3), st.integers(0, 2**32 - 1))
    @settings(deadline=None, max_examples=20)
    def test_scrambled_and_cleaned_doubles(self, m, seed):
        scrambled = scrambled_double(m, seed)
        self._check(scrambled)
        self._check(remove_diagonals(scrambled, splitting_plan(m)))

    @pytest.mark.parametrize("build", [single_box, trefoil_with_mixed_box], ids=lambda f: f.__name__)
    def test_ranks_of_other_complexes(self, build):
        assert hat_homology_ranks(build()) == reference_hat_ranks(build())

    @given(st.data())
    @settings(deadline=None, max_examples=60)
    def test_ranks_of_unchecked_complexes(self, data):
        """Arrows validate would reject (any upower, any levels, loose ends)
        count in the column only as U^0 g -> U^0 h, g one level above h."""
        maslovs = data.draw(st.lists(st.integers(-2, 2), max_size=7))
        gens = [Generator(f"g{k}", 0, m) for k, m in enumerate(maslovs)]
        ends = st.sampled_from([g.name for g in gens] + ["ghost"])
        arrows = data.draw(st.lists(st.builds(Arrow, ends, ends, st.integers(0, 2)), max_size=12))
        complex = FilteredComplex(gens, arrows)
        assert hat_homology_ranks(complex) == reference_hat_ranks(complex)


class TestD1General:
    def test_trefoil(self):
        assert d1_general(from_staircase(Staircase((1, 1)))) == -2

    def test_unknot(self):
        assert d1_general(from_staircase(Staircase(()))) == 0

    def test_tensor_square_of_trefoil(self):
        t = from_staircase(Staircase((1, 1)))
        assert d1_general(tensor(t, t)) == -2
        assert d1_general(tensor(t, t)) == delta_whitehead(Staircase((1, 1))) // 2

    def test_one_reduction_on_a_large_square(self, monkeypatch):
        """T(7,11)^2's first probe to die is its 19th (n = 18), yet the search
        solves nothing: its coset minimum and hat_generator's are all it takes."""
        from collections import Counter

        from cfktools import gf2

        calls = Counter()
        for name in ("solve_masks", "coset_minima"):
            def counted(*args, _name=name, _wrapped=getattr(gf2, name)):
                calls[_name] += 1
                return _wrapped(*args)

            monkeypatch.setattr(gf2, name, counted)
        assert d1_general(_torus_square(7, 11)) == -36
        assert calls == {"coset_minima": 2}

    @pytest.mark.parametrize("stair", TORUS_STAIRCASES, ids=str)
    def test_matches_closed_form(self, stair):
        assert d1_general(from_staircase(stair)) == d1_closed_form(stair)

    @pytest.mark.parametrize("stair", TORUS_STAIRCASES, ids=str)
    def test_tensor_square_matches_whitehead_delta(self, stair):
        c = from_staircase(stair)
        assert 2 * d1_general(tensor(c, c)) == delta_whitehead(stair)


class TestD1AgainstReference:
    """d1_general against the probe-per-U-power search of tests/oracles.py."""

    @pytest.mark.parametrize("p,q", TORUS_SQUARES_TO_289)
    def test_torus_squares(self, p, q):
        square = _torus_square(p, q)
        assert d1_general(square) == reference_d1(square)

    @pytest.mark.parametrize("m", [1, 2])
    def test_double_squares(self, m):
        double = build_double_complex(m)
        square = tensor(double, double)
        assert d1_general(square) == reference_d1(square)

    @staticmethod
    def _check_with_every_probe(complex):
        """Once a probe dies every later one does, so the first death is d1."""
        probes = list(reference_probes(complex))
        first = probes.index(True)
        assert all(probes[first:])
        assert d1_general(complex) == -2 * first

    @given(PALINDROMES, PALINDROMES)
    @settings(deadline=None, max_examples=40)
    def test_palindrome_tensors(self, a, b):
        self._check_with_every_probe(tensor(from_staircase(a), from_staircase(b)))

    @given(st.integers(1, 3), st.integers(0, 2**32 - 1))
    @settings(deadline=None, max_examples=20)
    def test_scrambled_and_cleaned_doubles(self, m, seed):
        scrambled = scrambled_double(m, seed)
        self._check_with_every_probe(scrambled)
        self._check_with_every_probe(remove_diagonals(scrambled, splitting_plan(m)))

    @given(PALINDROMES, PALINDROMES)
    @settings(deadline=None, max_examples=40)
    def test_bounded_by_the_generator_gradings(self, a, b):
        """U^(n+1) xi leaves the quotient once n reaches every term's max(0, A)."""
        complex = tensor(from_staircase(a), from_staircase(b))
        gens = {g.name: g for g in complex.generators}
        reach = max(max(0, gens[name].alexander) for name, _ in hat_generator(complex).terms)
        assert d1_general(complex) >= -2 * reach


class TestD1Invariance:
    def test_under_basis_change(self):
        from cfktools import build_double_complex
        from cfktools.filtered import _shift_of
        from cfktools.errors import IllegalBasisChange

        complex = build_double_complex(1)
        base = d1_general(complex)
        names = complex.names()
        moves = []
        for x in names:
            for y in names:
                if x == y:
                    continue
                try:
                    _shift_of(complex, BasisChange(x=x, y=y))
                except IllegalBasisChange:
                    continue
                moves.append(BasisChange(x=x, y=y))
        assert moves
        for move in moves:
            assert d1_general(basis_change(complex, move)) == base

    @given(st.sampled_from(["D(1)", "D(2)", "T(3,4)^2"]), st.data())
    @settings(deadline=None, max_examples=40)
    def test_under_random_basis_change_sequences(self, name, data):
        t34 = from_staircase(Staircase((1, 2, 2, 1)))
        complex = {
            "D(1)": lambda: build_double_complex(1),
            "D(2)": lambda: build_double_complex(2),
            "T(3,4)^2": lambda: tensor(t34, t34),
        }[name]()
        base = d1_general(complex)
        for move in data.draw(st.lists(st.sampled_from(legal_moves(complex)), max_size=8)):
            complex = basis_change(complex, move)
        assert validate(complex) is None
        assert d1_general(complex) == base

    @given(SMALL_PALINDROMES, SMALL_PALINDROMES)
    @settings(deadline=None, max_examples=30)
    def test_under_swapping_tensor_factors(self, a, b):
        ca, cb = from_staircase(a), from_staircase(b)
        assert d1_general(tensor(ca, cb)) == d1_general(tensor(cb, ca))

    def test_under_dropping_acyclic_summands(self):
        from cfktools import build_double_complex

        complex = build_double_complex(2)
        parts = split_summands(complex)
        keep = [p for p in parts if is_acyclic(p).verdict == "certified-nonacyclic"]
        assert len(keep) == 1
        assert d1_general(complex) == d1_general(keep[0]) == -2


@st.composite
def maslov_graded_complexes(draw):
    """Generators in random name order and any set of arrows that obey the
    Maslov rule, each with its forced U-power (negative ones too), so d^2
    need not vanish."""
    names = draw(st.lists(st.text(alphabet="abxy*'", min_size=1, max_size=3),
                          min_size=1, max_size=8, unique=True))
    gens = [Generator(name, draw(st.integers(-2, 2)), draw(st.integers(-3, 3))) for name in names]
    allowed = [
        Arrow(s.name, t.name, (t.maslov - s.maslov + 1) // 2)
        for s in gens
        for t in gens
        if (t.maslov - s.maslov) % 2
    ]
    keep = draw(st.lists(st.booleans(), min_size=len(allowed), max_size=len(allowed)))
    return FilteredComplex(gens, [a for a, k in zip(allowed, keep) if k])


class TestIsAcyclic:
    def test_box(self):
        report = is_acyclic(single_box())
        assert report.verdict == "certified-acyclic"
        assert bool(report)

    def test_staircase(self):
        report = is_acyclic(from_staircase(Staircase((1, 1))))
        assert report.verdict == "certified-nonacyclic"
        assert report.survivors

    def test_empty(self):
        from cfktools import FilteredComplex

        assert is_acyclic(FilteredComplex((), ())).verdict == "certified-acyclic"

    def test_disjoint_boxes(self):
        from .complex_fixtures import box_pair_level

        assert is_acyclic(box_pair_level(1, 1, 0, 0)).verdict == "certified-acyclic"

    def test_two_powers_between_one_pair_is_indeterminate(self):
        from cfktools import Arrow, FilteredComplex, Generator

        complex = FilteredComplex(
            [Generator("a", 0, 1), Generator("b", 0, 0)],
            [Arrow("a", "b", 0), Arrow("a", "b", 1)],
        )
        assert validate(complex) is not None
        report = is_acyclic(complex)
        assert report.verdict == "indeterminate"
        assert report.cancelled_pairs == 0
        assert report.survivors == ("a", "b")

    def test_one_arrow_off_the_maslov_rule_is_indeterminate(self):
        # cancelling a -> b would leave nothing, but U^1 drops the grading by 3
        complex = FilteredComplex(
            [Generator("b", 0, 0), Generator("a", 0, 1)], [Arrow("a", "b", 1)]
        )
        assert is_acyclic(complex) == AcyclicityReport("indeterminate", 0, ("a", "b"))

    @given(maslov_graded_complexes(), st.data())
    @settings(deadline=None, max_examples=100)
    def test_any_arrow_off_the_maslov_rule_is_indeterminate(self, complex, data):
        source = data.draw(st.sampled_from(complex.generators))
        target = data.draw(st.sampled_from(complex.generators))
        upower = data.draw(st.integers(-3, 3))
        assume(target.maslov - 2 * upower != source.maslov - 1)
        bad = complex.with_arrows(complex.arrows | {Arrow(source.name, target.name, upower)})
        assert is_acyclic(bad) == AcyclicityReport("indeterminate", 0, tuple(sorted(complex.names())))

    @pytest.mark.parametrize("stair", TORUS_STAIRCASES[:6], ids=str)
    def test_staircases_never_acyclic(self, stair):
        assert is_acyclic(from_staircase(stair)).verdict == "certified-nonacyclic"


class TestIsAcyclicMatchesReference:
    """Same verdict, pair count and survivors as the repeated pivot scan."""

    @given(maslov_graded_complexes())
    @settings(deadline=None, max_examples=300)
    def test_random_graded_complexes(self, complex):
        assert is_acyclic(complex) == reference_is_acyclic(complex)

    def test_every_two_level_complex_on_six_generators(self):
        # every arrow set from three generators at Maslov 1 to three at 0,
        # for each way of placing the three in name order
        for tops in itertools.combinations("abcdef", 3):
            gens = [Generator(name, 0, int(name in tops)) for name in "abcdef"]
            slots = [Arrow(s, t, 0) for s in tops for t in "abcdef" if t not in tops]
            for keep in itertools.product((0, 1), repeat=len(slots)):
                complex = FilteredComplex(gens, [a for a, k in zip(slots, keep) if k])
                assert is_acyclic(complex) == reference_is_acyclic(complex)

    @given(st.integers(1, 6), st.integers(0, 1 << 16), st.integers(1, 16))
    @settings(deadline=None, max_examples=30)
    def test_scrambled_doubles_and_their_components(self, m, seed, count):
        complex = scrambled_double(m, seed, count)
        for part in [complex, *split_summands(complex)]:
            assert is_acyclic(part) == reference_is_acyclic(part)

    @pytest.mark.parametrize(
        "build,width",
        [(box_pair_level, 4), (box_pair_step, 5), (box_over_corner, 5)],
        ids=["level", "step", "over-corner"],
    )
    def test_every_box_pattern(self, build, width):
        for pattern in itertools.product((0, 1), repeat=width):
            complex = build(*pattern)
            assert is_acyclic(complex) == reference_is_acyclic(complex)

    @given(PALINDROMES)
    @settings(deadline=None, max_examples=40)
    def test_staircases_and_their_squares(self, stair):
        c = from_staircase(stair)
        for complex in (c, tensor(c, c)):
            assert is_acyclic(complex) == reference_is_acyclic(complex)


def test_d1_even_and_nonpositive_on_family():
    for stair in TORUS_STAIRCASES:
        value = d1_general(from_staircase(stair))
        assert value % 2 == 0 and value <= 0
