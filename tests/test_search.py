"""Config enumeration for a pattern menu and the selection algorithms."""

import dataclasses
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tasd import (
    EmptyCalibration,
    LayerSpec,
    MagnitudeOracle,
    NmPattern,
    NonFiniteEntry,
    PatternMenu,
    SchemaError,
    TasdConfig,
    Workload,
    decompose,
    dense_config,
    drop_metrics,
    enumerate_configs,
    is_expressible,
    layer_wise_greedy,
    load_assignment,
    network_wise_search,
    pseudo_density,
    random_matrix,
    sample_sparsities,
    save_assignment,
    select_activation_configs,
    sparsity,
    sparsity_select,
    stc_m4,
    vegeta_m8,
    workload_cost,
)
from tasd.search import ranked_pairs

VEGETA_MENU = PatternMenu(m=8, base_patterns=frozenset({1, 2, 4}), max_terms=2)


def menus():
    def build(m):
        return st.sets(st.integers(1, m), min_size=1, max_size=m).flatmap(
            lambda base: st.integers(1, 3).map(
                lambda k: PatternMenu(m, frozenset(base), k)
            )
        )

    return st.sampled_from([2, 4, 8, 16]).flatmap(build)


class TestPatternMenu:
    def test_validation(self):
        with pytest.raises(ValueError):
            PatternMenu(0, frozenset({1}), 1)
        with pytest.raises(ValueError):
            PatternMenu(4, frozenset(), 1)
        with pytest.raises(ValueError):
            PatternMenu(4, frozenset({5}), 1)
        with pytest.raises(ValueError):
            PatternMenu(4, frozenset({2}), 0)

    @pytest.mark.parametrize(
        "m, base, max_terms",
        [(8, {2}, 2.0), (8, {2}, True), (8.0, {2}, 2), (True, {1}, 1), (8, {2.0}, 2),
         (8, {True, 2}, 2)],
    )
    def test_non_integer_fields_rejected(self, m, base, max_terms):
        # (8, {2}, 2.0) used to fail later, in enumerate_configs, with a bare
        # TypeError, and max_terms=True was taken as 1
        with pytest.raises(ValueError, match="integer"):
            PatternMenu(m, frozenset(base), max_terms)


class TestEnumerateConfigs:
    def test_two_term_menu_realizations(self):
        configs = enumerate_configs(VEGETA_MENU)
        table = {c.sum_n: c.canonical() for c in configs}
        assert sorted(table) == [1, 2, 3, 4, 5, 6, 8]
        assert table[3] == "2:8+1:8"
        assert table[5] == "4:8+1:8"
        assert table[6] == "4:8+2:8"
        assert table[8] == "8:8"
        assert 7 not in table

    def test_coverages_strictly_increase(self):
        configs = enumerate_configs(VEGETA_MENU)
        coverages = [c.coverage for c in configs]
        assert all(b > a for a, b in zip(coverages, coverages[1:]))

    def test_single_pattern_menu(self):
        menu = PatternMenu(4, frozenset({2}), 1)
        assert [c.canonical() for c in enumerate_configs(menu)] == ["2:4", "4:4"]

    def test_equal_total_prefers_fewest_terms(self):
        menu = PatternMenu(4, frozenset({1, 2}), 2)
        table = {c.sum_n: c.canonical() for c in enumerate_configs(menu)}
        assert table[2] == "2:4"  # not 1:4+1:4
        assert table[4] == "4:4"  # dense beats 2:4+2:4

    def test_terms_beyond_what_fits_in_m_add_nothing(self):
        # every multiset size up to max_terms was walked, C(max_terms + 8, 8)
        # combinations on this menu: 1.2 s at 20 terms, no end at 64
        bases = frozenset(range(1, 9))
        many = enumerate_configs(PatternMenu(8, bases, 64))
        assert many == enumerate_configs(PatternMenu(8, bases, 8))

    @given(menus())
    @settings(max_examples=60, deadline=None)
    def test_totals_unique_dense_present(self, menu):
        configs = enumerate_configs(menu)
        totals = [c.sum_n for c in configs]
        assert len(set(totals)) == len(totals)
        assert totals == sorted(totals)
        assert totals[-1] == menu.m
        assert configs[-1].is_dense
        assert all(is_expressible(c, menu) for c in configs)


    def test_matches_brute_force_on_every_small_menu(self):
        # every base subset of m <= 8 and up to three terms
        for m in range(1, 9):
            for size in range(1, m + 1):
                for base in itertools.combinations(range(1, m + 1), size):
                    for max_terms in (1, 2, 3):
                        menu = PatternMenu(m, frozenset(base), max_terms)
                        assert enumerate_configs(menu) == brute_force_configs(menu), menu


def brute_force_configs(menu):
    """Each total's realization: every multiset of bases, then the fewest
    terms and the lexicographically largest descending tuple; dense is m:m."""
    realizations = {menu.m: {(menu.m,)}}
    for r in range(1, menu.max_terms + 1):
        for picks in itertools.product(sorted(menu.base_patterns), repeat=r):
            if sum(picks) <= menu.m:
                combo = tuple(sorted(picks, reverse=True))
                realizations.setdefault(sum(picks), set()).add(combo)
    return [
        TasdConfig(
            tuple(
                NmPattern(n, menu.m)
                for n in min(combos, key=lambda c: (len(c), [-n for n in c]))
            )
        )
        for _, combos in sorted(realizations.items())
    ]


class TestIsExpressible:
    def test_dense_always_runs(self):
        assert is_expressible(TasdConfig.parse("8:8"), VEGETA_MENU)
        assert is_expressible(TasdConfig.parse("4:4"), VEGETA_MENU)

    def test_base_and_arity_checks(self):
        assert is_expressible(TasdConfig.parse("4:8+1:8"), VEGETA_MENU)
        assert not is_expressible(TasdConfig.parse("3:8"), VEGETA_MENU)
        assert not is_expressible(TasdConfig.parse("2:4"), VEGETA_MENU)
        assert not is_expressible(TasdConfig.parse("1:8+1:8+1:8"), VEGETA_MENU)
        assert not is_expressible(TasdConfig.parse("2:4+2:8"), VEGETA_MENU)

    def test_any_config_spec(self):
        # a string or an NmPattern used to fail with an AttributeError
        assert is_expressible("4:8+1:8", VEGETA_MENU)
        assert is_expressible(NmPattern(2, 8), VEGETA_MENU)
        assert not is_expressible("3:8", VEGETA_MENU)
        assert not is_expressible(NmPattern(2, 4), VEGETA_MENU)


class TestSparsitySelect:
    H_MENU = PatternMenu(4, frozenset({1, 2, 3}), 1)  # H = {0, .25, .5, .75}

    def test_picks_largest_below_target(self):
        cfg = sparsity_select(0.60, 0.10, self.H_MENU)
        assert cfg.approximated_sparsity == 0.50

    def test_high_sparsity_picks_most_aggressive(self):
        cfg = sparsity_select(0.90, 0.10, self.H_MENU)
        assert cfg.approximated_sparsity == 0.75

    def test_zero_target_is_dense(self):
        assert sparsity_select(0.0, 0.0, self.H_MENU).is_dense
        assert sparsity_select(-1.0, 0.5, self.H_MENU).is_dense

    def test_tiny_sparsity_is_dense(self):
        assert sparsity_select(0.05, 0.01, self.H_MENU).is_dense

    @pytest.mark.parametrize(
        "sparsity, alpha",
        [(float("nan"), 0.05), (float("inf"), 0.05), (0.5, float("nan")), (0.5, float("-inf"))],
    )
    def test_non_finite_input_rejected(self, sparsity, alpha):
        # NaN sparsity used to pick dense without a word
        with pytest.raises(NonFiniteEntry):
            sparsity_select(sparsity, alpha, self.H_MENU)

    @given(menus(), st.floats(0, 1), st.floats(0, 0.3))
    @settings(max_examples=100, deadline=None)
    def test_matches_linear_scan_oracle(self, menu, s, alpha):
        chosen = sparsity_select(s, alpha, menu)
        target = s + alpha
        candidates = [
            c for c in enumerate_configs(menu) if c.approximated_sparsity < target
        ]
        if not candidates or target <= 0.0:
            assert chosen.is_dense
        else:
            best = max(candidates, key=lambda c: c.approximated_sparsity)
            assert chosen.approximated_sparsity == best.approximated_sparsity
            assert chosen == best

    @given(menus(), st.floats(0, 1), st.floats(0, 1), st.floats(0, 0.3))
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_target(self, menu, s1, s2, alpha):
        lo, hi = sorted((s1, s2))
        a = sparsity_select(lo, alpha, menu)
        b = sparsity_select(hi, alpha, menu)
        assert b.approximated_sparsity >= a.approximated_sparsity


class TestPseudoDensity:
    def test_single_dominant_entry(self):
        assert pseudo_density([10, 0.05, 0.03, 0.02], rho=0.99) == 0.25

    def test_all_equal(self):
        values = [1.0] * 10
        assert pseudo_density(values, rho=0.99) == 1.0  # ceil(9.9)/10

    def test_all_zero(self):
        assert pseudo_density([0.0, 0.0], rho=0.99) == 0.0
        assert pseudo_density([], rho=0.99) == 0.0

    @pytest.mark.parametrize("rho", [-1.0, 0.0, 1.0000001, 5.0, float("nan")])
    def test_rho_outside_unit_interval_rejected(self, rho):
        # rho -1 used to give 0.5 and rho 5 gave 1.0
        with pytest.raises(ValueError, match="rho"):
            pseudo_density([1.0, 2.0], rho)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_magnitudes_rejected(self, bad):
        # [1.0, nan] used to give 0.5
        with pytest.raises(NonFiniteEntry):
            pseudo_density([1.0, bad])

    @given(
        st.lists(st.floats(0, 100, allow_nan=False), min_size=1, max_size=12),
        st.floats(0.01, 1.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_prefix_oracle(self, values, rho):
        result = pseudo_density(values, rho)
        # a raveled sample and its 2-D form give the same value
        assert pseudo_density(np.reshape(values, (-1, 1)), rho) == result
        ordered = sorted(values, reverse=True)
        total = sum(ordered)  # impl accumulates in descending order
        if total == 0.0:
            assert result == 0.0
            return
        k = next(
            k for k in range(1, len(values) + 1) if sum(ordered[:k]) >= rho * total
        )
        assert result == k / len(values)


@pytest.mark.parametrize("value", [True, "0.5", None])
@pytest.mark.parametrize("argument", ["rho", "alpha", "sparsity"])
def test_selection_numbers_must_be_numbers(argument, value):
    # rho=True gave 0.9 and alpha=True picked 2:4, taking the bool as 1.0;
    # strings and None escaped as TypeError
    menu = TestSparsitySelect.H_MENU
    call = {
        "rho": lambda: pseudo_density(np.arange(10.0), rho=value),
        "alpha": lambda: sparsity_select(0.5, value, menu),
        "sparsity": lambda: sparsity_select(value, 0.05, menu),
    }[argument]
    with pytest.raises(ValueError, match=f"{argument} must be a"):
        call()


class TestSampleSparsities:
    H_MENU = PatternMenu(4, frozenset({1, 2, 3}), 1)

    def test_mean_of_sample_sparsities(self):
        samples = [
            np.array([[1.0, 0.0], [0.0, 0.0]]),  # 0.75 sparse
            np.array([[1.0, 1.0], [0.0, 0.0]]),  # 0.50 sparse
        ]
        values = sample_sparsities(samples)
        assert values == [0.75, 0.50]
        trace = []
        select_activation_configs({"L0": values}, self.H_MENU, statistic="mean", trace=trace)
        assert trace[0]["layer"] == "L0"
        assert trace[0]["sparsity_mean"] == pytest.approx(0.625)

    def test_single_sample_mean_equals_p99(self):
        trace = []
        values = sample_sparsities([np.array([[1.0, 0.0, 0.0, 0.0]])])
        select_activation_configs({"L0": values}, self.H_MENU, trace=trace)
        assert trace[0]["sparsity_mean"] == trace[0]["sparsity_p99"] == 0.75

    def test_rho_gives_pseudo_sparsities(self):
        samples = [np.array([[10.0, 0.05, 0.03, 0.02]]), np.array([[1.0, -1.0, 1.0, 0.0]])]
        assert sample_sparsities(samples, rho=0.99) == [0.75, 0.25]
        assert sample_sparsities(samples, rho=1.0) == [0.0, 0.25]
        with pytest.raises(ValueError):
            sample_sparsities(samples, rho=0.0)


class TestSelectActivationConfigs:
    H_MENU = PatternMenu(4, frozenset({1, 2, 3}), 1)

    def test_relu_uses_measured_sparsity(self):
        sample = np.array([[1.0, 0.0, 0.0, 0.0], [1.0, 1.0, 1.0, 0.0]])  # 0.5 sparse
        assignment = select_activation_configs(
            {"L0": sample_sparsities([sample])}, self.H_MENU, alpha=0.05
        )
        # target 0.55, largest H below is 0.50
        assert assignment["L0"].approximated_sparsity == 0.50

    def test_dense_layers_left_out(self):
        trace = []
        assignment = select_activation_configs(
            {"L0": [0.05]}, self.H_MENU, alpha=0.05, trace=trace
        )
        assert assignment == {}
        assert trace[0]["config"] == "dense"

    def test_non_relu_uses_pseudo_density(self):
        sample = np.array([[10.0, 0.05, 0.03, 0.02]])  # pseudo-density 0.25
        assert sparsity(sample) == 0.0
        assignment = select_activation_configs(
            {"L0": sample_sparsities([sample], rho=0.99)}, self.H_MENU, alpha=0.05
        )
        # treated as sparsity 0.75, target 0.80, largest H below is 0.75
        assert assignment["L0"].approximated_sparsity == 0.75

    def test_empty_rejected(self):
        with pytest.raises(EmptyCalibration, match="'L1'"):
            select_activation_configs({"L0": [0.5], "L1": []}, self.H_MENU)

    def test_statistic_flag(self):
        values = {"L0": [0.20, 0.90]}  # mean 0.55, p99 0.893
        by_p99 = select_activation_configs(values, self.H_MENU, statistic="p99")
        by_mean = select_activation_configs(values, self.H_MENU, statistic="mean")
        assert by_p99["L0"].approximated_sparsity == 0.75
        assert by_mean["L0"].approximated_sparsity == 0.50
        with pytest.raises(ValueError):
            select_activation_configs(values, self.H_MENU, statistic="median")

    def test_trace_has_one_line_per_layer(self):
        trace = []
        assignment = select_activation_configs(
            {"L0": [0.20, 0.90], "L1": [0.0]}, self.H_MENU, statistic="mean", trace=trace
        )
        assert [list(line) for line in trace] == [
            ["layer", "sparsity_mean", "sparsity_p99", "config"]
        ] * 2
        assert [line["layer"] for line in trace] == ["L0", "L1"]
        assert trace[0]["sparsity_mean"] == 0.55
        assert trace[0]["sparsity_p99"] == float(np.percentile([0.20, 0.90], 99))
        assert [line["config"] for line in trace] == [assignment["L0"].canonical(), "dense"]


# ---------------------------------------------------------------------------
# weight-side search


def toy_workload(seed=0, densities=(0.2, 0.6, 1.0)):
    rng = np.random.default_rng(seed)
    layers = []
    for i, density in enumerate(densities):
        weight = random_matrix(16, 16, density, "uniform", seed=int(rng.integers(2**31)))
        layers.append(LayerSpec(f"L{i}", 16, 8, 16, weight=weight))
    return Workload("toy", tuple(layers), baseline_quality=1.0)


def cycles_on(menu, workload):
    """The CLI's network-search cost: modeled cycles, here on a one-core
    target that runs every config of ``menu``."""
    hw = dataclasses.replace(stc_m4(), menu=menu)
    return lambda assignment: workload_cost(hw, workload, assignment)[0].cycles


# True used to gate at 1.0 x baseline, and a string or None escaped as a
# TypeError
NOT_A_NUMBER = [float("nan"), float("inf"), -float("inf"), True, "0.9", None]


class TestRankedPairs:
    def test_sorted_by_drop_then_coverage(self):
        wl = toy_workload()
        pairs = ranked_pairs(wl, VEGETA_MENU)
        assert len(pairs) == 3 * 6  # non-dense configs only
        drops = [drop for drop, _, _ in pairs]
        assert drops == sorted(drops)
        for (d1, _, c1), (d2, _, c2) in zip(pairs, pairs[1:]):
            if d1 == d2:
                assert c1.coverage >= c2.coverage

    def test_requires_weights(self):
        wl = Workload(
            "noweights", (LayerSpec("L0", 4, 4, 4),), baseline_quality=1.0
        )
        with pytest.raises(SchemaError):
            ranked_pairs(wl, VEGETA_MENU)

    @given(
        st.lists(
            st.tuples(
                st.integers(1, 9),
                st.integers(1, 40),
                st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]) | st.floats(0.0, 1.0),
                st.integers(0, 2**16),
                st.booleans(),
            ),
            min_size=1,
            max_size=4,
        ),
        st.sampled_from(["vegeta-m8", "stc-m4"]),
    )
    @settings(max_examples=80, deadline=None)
    def test_equals_the_decomposed_ranking(self, specs, hw):
        # cols not a multiple of m give partial blocks; negating a draw
        # turns its zeros into -0.0
        layers = []
        for i, (rows, cols, density, seed, negate) in enumerate(specs):
            weight = random_matrix(rows, cols, density, "normal", seed=seed)
            layers.append(LayerSpec(f"L{i}", rows, 4, cols, weight=-weight if negate else weight))
        wl = Workload("drawn", tuple(layers), baseline_quality=1.0)
        menu = (vegeta_m8() if hw == "vegeta-m8" else stc_m4()).menu
        ranked = ranked_pairs(wl, menu)
        expected = decomposed_ranking(wl, menu)
        assert ranked == expected
        assert [type(drop) for drop, _, _ in ranked] == [float] * len(expected)

    def test_runs_no_extraction(self, monkeypatch):
        import tasd._kernels

        calls = []
        monkeypatch.setattr(tasd._kernels, "extract_term_blocks", lambda *a: calls.append(a))
        wl = toy_workload()
        ranked_pairs(wl, VEGETA_MENU)
        ranked_pairs(wl, stc_m4().menu)
        assert calls == []


def decomposed_ranking(workload, menu):
    """``ranked_pairs`` computed by decomposing every (layer, config) pair."""
    pairs = []
    for li, layer in enumerate(workload.layers):
        for cfg in enumerate_configs(menu):
            if not cfg.is_dense:
                drop = drop_metrics(decompose(layer.weight, cfg)).dropped_nnz_fraction
                pairs.append((drop, -cfg.coverage, li, layer.layer_id, cfg))
    pairs.sort(key=lambda p: p[:3])
    return [(drop, layer_id, cfg) for drop, _, _, layer_id, cfg in pairs]


class TestLayerWiseGreedy:
    def test_threshold_zero_applies_everything(self):
        wl = toy_workload()
        oracle = MagnitudeOracle()
        assignment = layer_wise_greedy(wl, VEGETA_MENU, oracle, threshold=0.0)
        assert set(assignment) == {"L0", "L1", "L2"}
        # every layer escalated to the most aggressive config
        assert all(cfg.sum_n == 1 for cfg in assignment.values())

    def test_all_zero_weights_escalate_fully(self):
        layers = tuple(
            LayerSpec(f"L{i}", 8, 8, 8, weight=np.zeros((8, 8))) for i in range(2)
        )
        wl = Workload("zeros", layers, baseline_quality=1.0)
        oracle = MagnitudeOracle()
        assignment = layer_wise_greedy(wl, VEGETA_MENU, oracle, threshold=0.99)
        assert all(cfg.sum_n == 1 for cfg in assignment.values())

    def test_stops_at_first_violation_and_reverts(self):
        wl = toy_workload()
        oracle = MagnitudeOracle()
        trace = []
        assignment = layer_wise_greedy(
            wl, VEGETA_MENU, oracle, threshold=0.97, trace=trace
        )
        # the trace ends at the first rejection, nothing after it
        assert [t["applied"] for t in trace[:-1]] == [True] * (len(trace) - 1)
        assert trace[-1]["applied"] is False
        quality = oracle.evaluate(wl, assignment)
        assert quality >= 0.97 * wl.baseline_quality

    def test_skip_and_continue_keeps_going(self):
        wl = toy_workload()
        oracle = MagnitudeOracle()
        trace = []
        layer_wise_greedy(
            wl, VEGETA_MENU, oracle, threshold=0.97, skip_and_continue=True, trace=trace
        )
        assert len(trace) == 3 * 6
        assert not all(t["applied"] for t in trace)

    def test_quality_gate_holds_after_revert(self):
        oracle = MagnitudeOracle()
        for seed in range(10):
            wl = toy_workload(seed=seed)
            for threshold in (0.9, 0.95, 0.99):
                assignment = layer_wise_greedy(wl, VEGETA_MENU, oracle, threshold)
                assert oracle.evaluate(wl, assignment) >= threshold


    @pytest.mark.parametrize("threshold", NOT_A_NUMBER)
    def test_non_finite_threshold_rejected(self, threshold):
        # NaN and +Inf used to configure nothing, and -Inf applied every pair
        with pytest.raises(ValueError, match="threshold"):
            layer_wise_greedy(toy_workload(), VEGETA_MENU, MagnitudeOracle(), threshold)


def test_numpy_threshold_is_a_number():
    wl = toy_workload()
    threshold = np.float32(0.97)  # a numpy float that is not a Python float
    assert layer_wise_greedy(wl, VEGETA_MENU, MagnitudeOracle(), threshold) == (
        layer_wise_greedy(wl, VEGETA_MENU, MagnitudeOracle(), float(threshold))
    )


class TestNetworkWiseSearch:
    def test_picks_cheapest_qualifying_uniform_config(self):
        menu = PatternMenu(4, frozenset({1, 2, 3}), 1)
        wl = toy_workload(densities=(1.0, 1.0, 1.0))

        class CoverageOracle:
            def evaluate(self, workload, assignment):
                if not assignment:
                    return 1.0
                cov = min(c.coverage for c in assignment.values())
                return 1.0 if cov >= 0.75 else 0.5

        cfg, quality = network_wise_search(
            wl, menu, CoverageOracle(), threshold=0.99, cost=cycles_on(menu, wl)
        )
        assert cfg.canonical() == "3:4"
        assert quality == 1.0

    def test_only_dense_qualifies(self):
        menu = PatternMenu(4, frozenset({1, 2, 3}), 1)
        wl = toy_workload()

        class RejectSparse:
            def evaluate(self, workload, assignment):
                return 1.0 if not assignment else 0.0

        cfg, quality = network_wise_search(
            wl, menu, RejectSparse(), threshold=0.99, cost=cycles_on(menu, wl)
        )
        assert cfg.is_dense
        assert quality == wl.baseline_quality

    def test_falls_back_to_dense_when_nothing_qualifies(self):
        menu = PatternMenu(4, frozenset({1, 2, 3}), 1)
        wl = toy_workload()

        class RejectAll:
            def evaluate(self, workload, assignment):
                return 0.5

        cfg, quality = network_wise_search(
            wl, menu, RejectAll(), threshold=0.99, cost=cycles_on(menu, wl)
        )
        assert cfg.is_dense
        assert quality == 0.5  # dense quality reported even below the gate

    def test_trace_covers_every_candidate(self):
        menu = PatternMenu(4, frozenset({2}), 1)
        wl = toy_workload()
        trace = []
        network_wise_search(
            wl, menu, MagnitudeOracle(), threshold=0.0, cost=cycles_on(menu, wl), trace=trace
        )
        assert [t["config"] for t in trace] == ["2:4", "4:4"]

    def test_cost_is_required(self):
        # the MAC count it used to default to was a second cost model
        with pytest.raises(TypeError, match="cost"):
            network_wise_search(toy_workload(), VEGETA_MENU, MagnitudeOracle())

    @pytest.mark.parametrize("threshold", NOT_A_NUMBER)
    def test_non_finite_threshold_rejected(self, threshold):
        # NaN and +Inf used to return dense, and -Inf the cheapest config
        wl = toy_workload()
        with pytest.raises(ValueError, match="threshold"):
            network_wise_search(
                wl, VEGETA_MENU, MagnitudeOracle(), threshold, cost=cycles_on(VEGETA_MENU, wl)
            )


# ---------------------------------------------------------------------------
# assignment serialization


class TestAssignmentJson:
    def test_round_trip(self, tmp_path):
        assignment = {
            "L0": TasdConfig.parse("4:8+1:8"),
            "L1": TasdConfig.parse("2:4"),
        }
        path = tmp_path / "assignment.json"
        save_assignment(assignment, path)
        again = load_assignment(path)
        assert again == assignment

    def test_json_shape(self, tmp_path):
        path = tmp_path / "assignment.json"
        save_assignment({"L0": TasdConfig.parse("4:8+1:8")}, path)
        assert json.loads(path.read_text()) == {"L0": {"terms": [[4, 8], [1, 8]]}}
        assert load_assignment(path)["L0"].canonical() == "4:8+1:8"

    @staticmethod
    def load(obj, tmp_path):
        path = tmp_path / "assignment.json"
        path.write_text(json.dumps(obj))
        return load_assignment(path)

    def test_malformed_rejected(self, tmp_path):
        with pytest.raises(SchemaError):
            self.load(["not", "a", "map"], tmp_path)
        with pytest.raises(SchemaError):
            self.load({"L0": {"no_terms": []}}, tmp_path)
        with pytest.raises(SchemaError):
            self.load({"L0": {"terms": [[9, 4]]}}, tmp_path)
        with pytest.raises(SchemaError, match="64"):
            self.load({"L0": {"terms": [[1, 65]]}}, tmp_path)
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        with pytest.raises(SchemaError):
            load_assignment(bad)

    @pytest.mark.parametrize("terms", [[[2.7, 8]], [[True, 4]], [["2", "4"]], [[2, 4.0]]])
    def test_mistyped_terms_rejected(self, terms, tmp_path):
        # these used to be read as 2:8, 1:4, 2:4 and 2:4
        with pytest.raises(SchemaError):
            self.load({"L0": {"terms": terms}}, tmp_path)
