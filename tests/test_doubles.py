import random
import sys
from collections import Counter
from dataclasses import replace

import pytest

import cfktools
from cfktools import (
    CFKError,
    InvalidParameter,
    Staircase,
    basis_change,
    build_double_complex,
    classify_iterates,
    d1_general,
    delta_double_double,
    from_staircase,
    hat_generator,
    hfk_hat_ranks,
    remove_diagonals,
    split_summands,
    splitting_plan,
    tensor,
    validate,
    verify_splitting,
)
from cfktools import cli, doubles
from cfktools.doubles import (
    DISTINGUISHABLE,
    INCONCLUSIVE,
    MAX_DOUBLE,
    SPECIAL_CASE,
)

from .cli_runner import CliRunner
from .complex_fixtures import plan_respecting_moves
from .oracles import hfk_hat_double, reference_double_complex


class TestHfkTable:
    def test_m1(self):
        assert hfk_hat_ranks(build_double_complex(1)) == {
            (1, 0): 2,
            (1, -1): 2,
            (0, -1): 3,
            (0, -2): 4,
            (-1, -2): 2,
            (-1, -3): 2,
        }

    def test_m2_row_ranks(self):
        table = hfk_hat_ranks(build_double_complex(2))
        assert sum(table.values()) == 31
        j0 = {m: r for (j, m), r in table.items() if j == 0}
        assert j0 == {-1: 7, -2: 4, -4: 4}

    @pytest.mark.parametrize("m", range(1, 5))
    def test_total_rank_and_support(self, m):
        table = hfk_hat_ranks(build_double_complex(m))
        assert sum(table.values()) == 16 * m - 1
        assert all(j in (-1, 0, 1) for j, _ in table)

    def test_matches_the_family_table_up_to_the_largest_double(self):
        for m in range(1, MAX_DOUBLE + 1):
            assert hfk_hat_ranks(build_double_complex(m)) == hfk_hat_double(m), m


class TestBuild:
    def test_m1_shape(self):
        c = build_double_complex(1)
        assert len(c.generators) == 15 and len(c.arrows) == 14
        assert validate(c) is None

    @pytest.mark.parametrize("m", range(1, 7))
    def test_validates_and_matches_rank_table(self, m):
        c = build_double_complex(m)
        assert validate(c) is None
        counts = Counter((g.alexander, g.maslov) for g in c.generators)
        assert counts == Counter(hfk_hat_double(m))

    def test_hat_generator_sits_in_grading_zero(self):
        for m in (1, 2, 3):
            assert hat_generator(build_double_complex(m)).maslov == 0

    def test_rejects_bad_m(self):
        with pytest.raises(InvalidParameter):
            build_double_complex(0)

    def test_matches_the_named_construction_up_to_the_largest_double(self):
        for m in range(1, MAX_DOUBLE + 1):
            got, want = build_double_complex(m), reference_double_complex(m)
            assert got == want and hash(got) == hash(want), m
            assert got.generators == want.generators and got.arrows == want.arrows, m
            assert validate(got) is None, m

    @pytest.mark.parametrize("m", range(1, 4))
    def test_squared_differential_cancels_in_stated_pairs(self, m):
        # d² of y_{2m+l-1} routes through both z_l and U x_l; of v_{p,i+2}
        # through both w_{p,i} and U u_{p,i}
        c = build_double_complex(m)
        for l in range(2, 2 * m + 1):
            name = f"y{2 * m + l - 1}"
            composites = {
                (b.target, a.upower + b.upower)
                for a in c.arrows
                if a.source == name
                for b in c.arrows
                if b.source == a.target
            }
            assert composites == {(f"y{l - 1}", 1)}


class TestSplitting:
    @pytest.mark.parametrize("m", range(1, 5))
    def test_trefoil_plus_acyclic(self, m):
        report = verify_splitting(build_double_complex(m))
        assert report.trefoil_summand and report.acyclic_rest
        assert sorted(report.component_sizes) == [3] + [4] * (4 * m - 1)

    def test_largest_double_the_cli_builds(self):
        report = verify_splitting(build_double_complex(200))
        assert report.trefoil_summand and report.acyclic_rest
        assert report.rest_verdict == "certified-acyclic"
        assert sorted(report.component_sizes) == [3] + [4] * 799

    def test_component_count_examples(self):
        assert len(split_summands(build_double_complex(1))) == 4
        assert len(split_summands(build_double_complex(2))) == 8

    def test_plan_matches_components(self):
        for m in (1, 2):
            plan = splitting_plan(m)
            comps = split_summands(build_double_complex(m))
            plan_sets = {frozenset(sub) for sub in plan}
            comp_sets = {frozenset(c.names()) for c in comps}
            assert plan_sets == comp_sets

    def test_report_keeps_the_trefoil_summand(self):
        report = verify_splitting(build_double_complex(2))
        summand = split_summands(build_double_complex(2))[report.trefoil_index]
        assert report.trefoil == summand
        assert "trefoil" not in report.to_dict()
        assert report == replace(report, trefoil=None)

    def test_trefoil_complex_itself(self):
        report = verify_splitting(from_staircase(Staircase((1, 1))))
        assert report.trefoil_summand and report.acyclic_rest
        assert report.component_sizes == (3,)

    def test_identification_survives_renaming_and_shift(self):
        from cfktools import Arrow, FilteredComplex, Generator

        c = build_double_complex(1)
        renamed = FilteredComplex(
            [
                Generator(f"g{k}", g.alexander - 3, g.maslov - 6)
                for k, g in enumerate(c.generators)
            ],
            [
                Arrow(
                    f"g{c.names().index(a.source)}",
                    f"g{c.names().index(a.target)}",
                    a.upower,
                )
                for a in sorted(c.arrows)
            ],
        )
        report = verify_splitting(renamed)
        assert report.trefoil_summand and report.acyclic_rest


class TestDeltaDoubleDouble:
    @pytest.mark.parametrize("m", (1, 2, 3))
    def test_is_minus_four_with_route_agreement(self, m):
        assert delta_double_double(m, via="both") == -4

    @pytest.mark.parametrize("m", (1, 2, 3))
    def test_routes_individually(self, m):
        assert delta_double_double(m, via="splitting") == -4
        double = build_double_complex(m)
        assert 2 * d1_general(tensor(double, double)) == -4

    def test_rejects_bad_inputs(self):
        with pytest.raises(InvalidParameter):
            delta_double_double(0)
        for via in ("guess", "full"):
            with pytest.raises(ValueError):
                delta_double_double(1, via=via)

    def test_squares_nothing(self, monkeypatch):
        """Both routes take d1 of a square from its factors: neither the API,
        nor double --delta2, nor classify or its t2 table calls tensor."""
        calls = []

        def counted(*args, _wrapped=cfktools.tensor):
            calls.append(args)
            return _wrapped(*args)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "cfktools" and hasattr(module, "tensor"):
                monkeypatch.setattr(module, "tensor", counted)
        for m in range(1, 5):
            assert delta_double_double(m) == -4
        for m in (1, 2):
            result = CliRunner().invoke(cli.main, ["double", str(m), "--verify", "--delta2"])
            assert result.exit_code == 0
            assert result.stdout.splitlines()[-1] == "delta(D^2)  -4"
        assert classify_iterates(Staircase((1, 1, 1, 1))).delta_double_double == -4
        assert CliRunner().invoke(cli.main, ["table", "--family", "t2:4"]).exit_code == 0
        assert calls == []

    def test_routes_that_disagree_are_refused(self, monkeypatch):
        monkeypatch.setattr(doubles, "_summand_delta2", lambda report: -8)
        with pytest.raises(CFKError, match=r"^route disagreement: splitting gives -8, full tensor gives -4$"):
            delta_double_double(2)
        result = CliRunner().invoke(cli.main, ["double", "2", "--delta2"])
        assert result.exit_code == 1
        assert result.stderr == "Error: route disagreement: splitting gives -8, full tensor gives -4\n"

    def test_both_routes_take_every_built_double(self):
        for m in (11, MAX_DOUBLE):
            assert delta_double_double(m, via="both") == -4
            assert delta_double_double(m, via="splitting") == -4
        for via in ("both", "splitting"):
            with pytest.raises(InvalidParameter, match=r"^the double needs m <= 200, got 201$"):
                delta_double_double(MAX_DOUBLE + 1, via=via)


class TestClassify:
    def test_t27_distinguishable(self):
        report = classify_iterates(Staircase((1,) * 6))
        assert report.verdict == DISTINGUISHABLE
        assert report.delta_whitehead == -12
        assert report.psi == ((1, -3), (1, -1))
        assert report.summand_certificate is False

    def test_t25_special_case(self):
        report = classify_iterates(Staircase((1, 1, 1, 1)))
        assert report.verdict == SPECIAL_CASE
        assert report.delta_whitehead == -8
        assert report.delta_double_double == -4
        assert report.psi == ((1, -2), (1, -1))
        assert report.summand_certificate is True
        assert report.splitting is not None and report.splitting.trefoil_summand

    def test_t23_inconclusive(self):
        report = classify_iterates(Staircase((1, 1)))
        assert report.verdict == INCONCLUSIVE
        assert report.delta_whitehead == -4

    def test_t34_inconclusive(self):
        report = classify_iterates(Staircase((1, 2, 2, 1)))
        assert report.verdict == INCONCLUSIVE
        assert report.delta_whitehead == -8
        assert report.delta_double_double is None
        assert report.psi == ((1, -2),)

    def test_two_strand_family_pattern(self):
        verdicts = {
            m: classify_iterates(Staircase((1,) * (2 * m))).verdict
            for m in range(1, 6)
        }
        assert verdicts[1] == INCONCLUSIVE
        assert verdicts[2] == SPECIAL_CASE
        assert all(verdicts[m] == DISTINGUISHABLE for m in (3, 4, 5))

    @pytest.mark.parametrize(
        "m, verdict, note",
        [
            (1, SPECIAL_CASE, "delta(D^2) = -8 differs from delta(D) = -4"),
            (2, INCONCLUSIVE, "delta(D) = -8 and delta(D^2) = -8 coincide"),
        ],
    )
    def test_verdict_compares_the_computed_deltas(self, monkeypatch, m, verdict, note):
        monkeypatch.setattr(doubles, "_summand_delta2", lambda report: -8)
        report = classify_iterates(Staircase((1,) * (2 * m)))
        assert report.verdict == verdict
        assert report.delta_double_double == -8
        assert note in report.note

    def test_unknot(self):
        report = classify_iterates(Staircase(()))
        assert report.verdict == INCONCLUSIVE
        assert report.psi is None

    def test_report_serializes(self):
        import json

        blob = json.dumps(classify_iterates(Staircase((1, 1, 1, 1))).to_dict())
        assert "SPECIAL-CASE-DISTINGUISHABLE" in blob


class TestInjectedDiagonals:
    def test_round_trip_m2(self):
        m = 2
        clean = build_double_complex(m)
        plan = splitting_plan(m)
        position = {name: k for k, sub in enumerate(plan) for name in sub}
        moves = plan_respecting_moves(clean, plan)
        base = d1_general(clean)
        rng = random.Random(20260811)
        for _ in range(4):
            injected = clean
            for move in rng.sample(moves, 10):
                injected = basis_change(injected, move)
            assert validate(injected) is None
            assert d1_general(injected) == base
            cleaned = remove_diagonals(injected, plan)
            assert validate(cleaned) is None
            assert all(
                position[a.source] == position[a.target] for a in cleaned.arrows
            )
            assert d1_general(cleaned) == base
            assert len(split_summands(cleaned)) == len(split_summands(clean))
