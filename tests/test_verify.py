import random

import pytest

from arbcheck import (
    Q,
    build_emm,
    equivalence_report,
    find_arbitrage,
    gains,
    scaled_gain_optimum,
    tree_to_json,
    validate,
    verify_martingale,
)
from arbcheck.errors import GeometryError, InputError
from arbcheck.geometry import InRi, NotInRi
from arbcheck.verify import (
    MODES,
    TreeParams,
    certificate_to_json,
    construction_to_json,
    density_to_json,
    random_tree,
    report_to_json,
    strategy_to_json,
)
from density_oracle import find_martingale_density
from helpers import (
    binomial,
    localized_arbitrage,
    one_step,
    single_chain,
    skewed_coin,
    skewed_coin_two_period,
    sure_win,
)

ZERO = Q(0)


class TestFindArbitrage:
    def test_none_on_fair_trees(self):
        for t in (skewed_coin(), skewed_coin_two_period(), binomial(2),
                  single_chain(2)):
            assert find_arbitrage(t) is None

    def test_sure_win(self):
        assert find_arbitrage(sure_win()) == {0: (Q(1),)}

    def test_strategy_concentrates_on_bad_node(self):
        strat = find_arbitrage(localized_arbitrage())
        assert strat == {0: (ZERO,), 1: (Q(1),), 2: (ZERO,)}
        assert gains(localized_arbitrage(), strat) == \
            {3: Q(1), 4: Q(2), 5: ZERO, 6: ZERO}

    def test_horizon_zero(self):
        assert find_arbitrage(single_chain(0)) is None


class TestFindMartingaleDensity:
    def test_unique_coin_density(self):
        z = find_martingale_density(skewed_coin())
        assert z.as_dict() == {1: Q(2, 3), 2: Q(2)}

    def test_none_under_arbitrage(self):
        assert find_martingale_density(sure_win()) is None
        assert find_martingale_density(localized_arbitrage()) is None

    def test_two_period(self):
        t = skewed_coin_two_period()
        z = find_martingale_density(t)
        ok, _ = verify_martingale(t, z)
        assert ok


class TestEquivalenceReport:
    def test_no_arbitrage_instance(self):
        rep = equivalence_report(skewed_coin(), seed=9)
        assert rep.verdict_na_strategy and rep.verdict_geometry and rep.verdict_emm
        assert rep.consistent
        assert rep.arbitrage is None
        assert rep.construction is not None
        assert rep.seed == 9
        assert rep.certificates == {0: InRi(weights=(Q(1, 2), Q(1, 2)))}

    def test_arbitrage_instance(self):
        rep = equivalence_report(sure_win())
        assert not (rep.verdict_na_strategy or rep.verdict_geometry or rep.verdict_emm)
        assert rep.consistent
        assert rep.construction is None
        assert rep.certificates == {0: NotInRi(direction=(Q(1),))}
        g = gains(sure_win(), rep.arbitrage)
        assert all(v >= 0 for v in g.values()) and any(v > 0 for v in g.values())

    def test_rejects_invalid_tree(self):
        from arbcheck.tree import Node, ScenarioTree
        bad = ScenarioTree(1, 2, [Node(0, None, Q(1), (ZERO,)),
                                  Node(1, 0, Q(1), (Q(1),))])
        with pytest.raises(InputError):
            equivalence_report(bad)


@pytest.mark.parametrize("entry", [
    equivalence_report, find_arbitrage, build_emm, scaled_gain_optimum,
])
def test_entry_points_reject_invalid_tree(entry):
    halved = one_step([1, -1], ["1/4", "1/4"])  # child probabilities sum to 1/2
    with pytest.raises(InputError, match="prob_sum"):
        entry(halved)


class TestScaledGainOptimum:
    def test_worked_one_step(self):
        assert scaled_gain_optimum(skewed_coin()) == Q(2, 3)

    def test_two_period(self):
        assert scaled_gain_optimum(skewed_coin_two_period()) == Q(2, 3)

    def test_zero_for_martingale(self):
        assert scaled_gain_optimum(binomial(2)) == ZERO

    def test_zero_for_deterministic(self):
        assert scaled_gain_optimum(single_chain(2)) == ZERO

    def test_rejects_arbitrage(self):
        with pytest.raises(GeometryError):
            scaled_gain_optimum(sure_win())

    def test_bounded_by_one_on_random_instances(self):
        hits = 0
        for seed in range(40):
            params = TreeParams(assets=1 + seed % 2, steps=1 + seed % 3,
                                max_branching=3, mode=MODES[seed % 2])
            t = random_tree(params, seed)
            if find_arbitrage(t) is not None:
                continue
            hits += 1
            beta = scaled_gain_optimum(t)
            assert ZERO <= beta <= Q(1)
        assert hits > 10


class TestGenerator:
    def test_deterministic(self):
        params = TreeParams(assets=2, steps=2, max_branching=3)
        assert random_tree(params, 123) == random_tree(params, 123)
        assert random_tree(params, 123) != random_tree(params, 124)

    def test_golden_seed_zero(self):
        assert tree_to_json(random_tree(TreeParams(), 0)) == {
            "d": 1,
            "N": 1,
            "nodes": [
                {"id": 0, "parent": None, "prob": "1", "price": ["-51/7"]},
                {"id": 1, "parent": 0, "prob": "13/16", "price": ["58/9"]},
                {"id": 2, "parent": 0, "prob": "3/16", "price": ["79/16"]},
            ],
        }

    def test_always_valid(self):
        for seed in range(30):
            params = TreeParams(assets=1 + seed % 3, steps=1 + seed % 4,
                                max_branching=2 + seed % 3, mode=MODES[seed % 2])
            assert validate(random_tree(params, seed)) == []

    def test_perturbed_mode_has_no_arbitrage(self):
        for seed in (1, 7, 42, 99):
            params = TreeParams(assets=2, steps=2, max_branching=3,
                                mode="martingale_perturbed")
            rep = equivalence_report(random_tree(params, seed))
            assert rep.consistent and rep.verdict_emm

    def test_denominators_respect_cap(self):
        params = TreeParams(max_denominator=5, steps=2, max_branching=4)
        for seed in range(10):
            t = random_tree(params, seed)
            for n in t.nodes:
                assert n.prob.denominator <= 5 * 4  # prob products stay small
                assert all(c.denominator <= 5 for c in n.price)

    @pytest.mark.parametrize("kwargs", [
        {"assets": 0}, {"assets": 5}, {"steps": 0}, {"steps": 6},
        {"max_branching": 0}, {"max_branching": 6},
        {"value_range": (3, 3)}, {"value_range": (5, -5)},
        {"max_denominator": 0}, {"max_denominator": 17},
        {"mode": "surprise"},
    ])
    def test_rejects_bad_params(self, kwargs):
        with pytest.raises(InputError):
            random_tree(TreeParams(**kwargs), 0)


class TestJsonEncoders:
    def test_strategy(self):
        assert strategy_to_json({0: (Q(1), Q(-1, 2))}) == {"0": ["1", "-1/2"]}

    def test_density(self):
        z = build_emm(skewed_coin()).density
        assert density_to_json(z) == {"1": "2/3", "2": "2"}

    def test_certificates(self):
        assert certificate_to_json(0, InRi(weights=(Q(1, 2), Q(1, 2)))) == \
            {"node": 0, "verdict": "in_ri", "weights": ["1/2", "1/2"]}
        assert certificate_to_json(3, NotInRi(direction=(Q(1), ZERO))) == \
            {"node": 3, "verdict": "not_in_ri", "direction": ["1", "0"]}

    def test_construction(self):
        c = build_emm(skewed_coin())
        assert construction_to_json(c) == {
            "leaf_density": {"1": "2/3", "2": "2"},
            "bound": "2",
            "per_node": [
                {"node": 0, "f": "1/3", "g": ["1/3", "1"], "g_hat": ["2/3", "2"]},
            ],
        }

    def test_report(self):
        rep = equivalence_report(skewed_coin(), seed=9)
        assert report_to_json(rep) == {
            "verdict_na_strategy": True,
            "verdict_geometry": True,
            "verdict_emm": True,
            "consistent": True,
            "seed": 9,
            "witnesses": {
                "arbitrage": None,
                "density": {"1": "2/3", "2": "2"},
                "bound": "2",
            },
            "certificates": [
                {"node": 0, "verdict": "in_ri", "weights": ["1/2", "1/2"]},
            ],
        }
