import random

import pytest

from arbcheck import (
    Q,
    ScenarioTree,
    conditional_mean,
    conditional_support,
    gains,
    leaf_probabilities,
    path_probabilities,
    reweight,
    tree_from_json,
    tree_to_json,
    validate,
)
from arbcheck.errors import InputError
from arbcheck.tree import (
    LeafDensity,
    Node,
    check_density,
    density_process,
    ensure_valid,
)
from helpers import (
    binomial,
    build,
    localized_arbitrage,
    one_step,
    single_chain,
    skewed_coin,
    skewed_coin_two_period,
)

R1 = Q(1)


class TestConstruction:
    def test_duplicate_id(self):
        with pytest.raises(InputError, match="duplicate node id 0"):
            ScenarioTree(1, 1, [Node(0, None, R1, (Q(0),)),
                                Node(0, None, R1, (Q(1),))])

    def test_root_count(self):
        with pytest.raises(InputError, match="exactly one root, found 2"):
            ScenarioTree(1, 1, [Node(0, None, R1, (Q(0),)),
                                Node(1, None, R1, (Q(1),))])
        with pytest.raises(InputError, match="exactly one root, found 0"):
            ScenarioTree(1, 1, [Node(0, 1, R1, (Q(0),)),
                                Node(1, 0, R1, (Q(1),))])

    def test_missing_parent(self):
        with pytest.raises(InputError, match="missing parent 5"):
            ScenarioTree(1, 1, [Node(0, None, R1, (Q(0),)),
                                Node(1, 5, R1, (Q(1),))])

    def test_cycle_detected(self):
        with pytest.raises(InputError, match="unreachable"):
            ScenarioTree(1, 2, [Node(0, None, R1, (Q(0),)),
                                Node(1, 2, R1, (Q(1),)),
                                Node(2, 1, R1, (Q(2),))])

    def test_accessors(self):
        t = skewed_coin_two_period()
        assert t.d == 1 and t.horizon == 2
        assert t.leaves() == (3, 4, 5, 6)
        assert t.non_leaves() == (0, 1, 2)
        assert t.depth(0) == 0 and t.depth(6) == 2
        assert t.children(0) == (1, 2)
        assert t.is_leaf(3) and not t.is_leaf(1)
        assert t == skewed_coin_two_period()
        assert t != skewed_coin()


class TestValidation:
    def test_valid_trees(self):
        for t in (skewed_coin(), skewed_coin_two_period(), binomial(3),
                  single_chain(2), localized_arbitrage()):
            assert validate(t) == []
            assert ensure_valid(t) is t

    def test_root_prob(self):
        t = ScenarioTree(1, 1, [Node(0, None, Q(2, 3), (Q(0),)),
                                Node(1, 0, R1, (Q(1),))])
        assert [str(v) for v in validate(t)] == \
            ["node 0: root_prob: root probability 2/3 != 1"]

    def test_price_dim(self):
        t = ScenarioTree(1, 1, [Node(0, None, R1, (Q(0),)),
                                Node(1, 0, R1, (Q(1), Q(2)))])
        assert [str(v) for v in validate(t)] == \
            ["node 1: price_dim: price has 2 components, expected 1"]

    def test_prob_positive(self):
        t = ScenarioTree(1, 1, [Node(0, None, R1, (Q(0),)),
                                Node(1, 0, Q(0), (Q(1),)),
                                Node(2, 0, R1, (Q(2),))])
        assert any(v.rule == "prob_positive" and v.node == 1
                   for v in validate(t))

    def test_prob_sum(self):
        t = ScenarioTree(1, 1, [Node(0, None, R1, (Q(0),)),
                                Node(1, 0, Q(1, 2), (Q(1),)),
                                Node(2, 0, Q(1, 3), (Q(2),))])
        assert [str(v) for v in validate(t)] == \
            ["node 0: prob_sum: child probabilities sum to 5/6 != 1"]

    def test_leaf_depth(self):
        t = ScenarioTree(1, 2, [Node(0, None, R1, (Q(0),)),
                                Node(1, 0, R1, (Q(1),))])
        assert [str(v) for v in validate(t)] == \
            ["node 1: leaf_depth: leaf at depth 1, horizon is 2"]

    def test_ensure_valid_raises(self):
        t = ScenarioTree(1, 2, [Node(0, None, R1, (Q(0),)),
                                Node(1, 0, R1, (Q(1),))])
        with pytest.raises(InputError):
            ensure_valid(t)


class TestJson:
    def test_golden_encoding(self):
        assert tree_to_json(skewed_coin()) == {
            "d": 1,
            "N": 1,
            "nodes": [
                {"id": 0, "parent": None, "prob": "1", "price": ["0"]},
                {"id": 1, "parent": 0, "prob": "3/4", "price": ["1"]},
                {"id": 2, "parent": 0, "prob": "1/4", "price": ["-1"]},
            ],
        }

    def test_roundtrip(self):
        for t in (skewed_coin(), skewed_coin_two_period(), binomial(2),
                  localized_arbitrage(), single_chain(3)):
            assert tree_from_json(tree_to_json(t)) == t

    def test_root_prob_null_accepted(self):
        data = tree_to_json(skewed_coin())
        data["nodes"][0]["prob"] = None
        assert tree_from_json(data) == skewed_coin()

    @pytest.mark.parametrize("mutate", [
        lambda d: d.pop("d"),
        lambda d: d["nodes"][0].pop("price"),
        lambda d: d["nodes"].__setitem__(0, {**d["nodes"][0], "prob": "0.5"}),
        lambda d: d.__setitem__("nodes", "oops"),
        lambda d: d.__setitem__("d", "two"),
        lambda d: d.__setitem__("d", 1.7),
        lambda d: d.__setitem__("d", True),
        lambda d: d.__setitem__("N", "1"),
        lambda d: d["nodes"][1].__setitem__("id", 1.9),
        lambda d: d["nodes"][1].__setitem__("parent", 0.0),
    ])
    def test_malformed_rejected(self, mutate):
        data = tree_to_json(skewed_coin())
        mutate(data)
        with pytest.raises(InputError):
            tree_from_json(data)


class TestSupports:
    def test_atoms_and_mean(self):
        cs = conditional_support(skewed_coin(), 0)
        assert cs.atoms == (((Q(1),), Q(3, 4)), ((Q(-1),), Q(1, 4)))
        assert cs.values() == ((Q(1),), (Q(-1),))
        assert cs.d == 1
        assert conditional_mean(cs) == (Q(1, 2),)

    def test_equal_increments_merge(self):
        t = one_step([1, 1, -1], ["1/3", "1/6", "1/2"])
        cs = conditional_support(t, 0)
        assert cs.atoms == (((Q(1),), Q(1, 2)), ((Q(-1),), Q(1, 2)))

    def test_leaf_has_no_support(self):
        with pytest.raises(InputError):
            conditional_support(skewed_coin(), 1)

    def test_two_assets(self):
        t = one_step([(1, 0), (0, 1), (-1, -1)], ["1/3", "1/3", "1/3"])
        cs = conditional_support(t, 0)
        assert cs.d == 2
        assert conditional_mean(cs) == (Q(0), Q(0))


class TestGains:
    def test_one_step(self):
        g = gains(skewed_coin(), {0: (Q(2),)})
        assert g == {1: Q(2), 2: Q(-2)}

    def test_localized(self):
        strat = {0: (Q(0),), 1: (Q(1),), 2: (Q(0),)}
        g = gains(localized_arbitrage(), strat)
        assert g == {3: Q(1), 4: Q(2), 5: Q(0), 6: Q(0)}

    def test_missing_node(self):
        with pytest.raises(InputError):
            gains(skewed_coin_two_period(), {0: (Q(1),)})

    def test_wrong_dim(self):
        with pytest.raises(InputError):
            gains(skewed_coin(), {0: (Q(1), Q(2))})

    def test_linearity(self):
        t = skewed_coin_two_period()
        rng = random.Random(3)
        draw = lambda: {n: (Q(rng.randint(-4, 4)),) for n in t.non_leaves()}
        for _ in range(10):
            a, b = draw(), draw()
            combo = {k: (a[k][0] * 3 + b[k][0],) for k in a}
            ga, gb, gc = gains(t, a), gains(t, b), gains(t, combo)
            assert all(gc[l] == 3 * ga[l] + gb[l] for l in gc)


class TestProbabilities:
    def test_path_probabilities(self):
        p = path_probabilities(skewed_coin_two_period())
        assert p[0] == Q(1)
        assert p[1] == Q(3, 4) and p[2] == Q(1, 4)
        assert p[6] == Q(1, 16)

    def test_leaf_probabilities(self):
        p = leaf_probabilities(skewed_coin_two_period())
        assert p == {3: Q(9, 16), 4: Q(3, 16), 5: Q(3, 16), 6: Q(1, 16)}
        assert sum(p.values(), Q(0)) == Q(1)


class TestDensity:
    def test_from_mapping_roundtrip(self):
        z = LeafDensity.from_mapping({2: Q(2), 1: Q(2, 3)})
        assert z.values == ((1, Q(2, 3)), (2, Q(2)))
        assert z.as_dict() == {1: Q(2, 3), 2: Q(2)}

    def test_check_density_accepts_identity(self):
        t = skewed_coin_two_period()
        check_density(t, LeafDensity.from_mapping({l: Q(1) for l in t.leaves()}))

    def test_check_density_rejects(self):
        t = skewed_coin()
        with pytest.raises(InputError, match="mass 2 != 1"):
            check_density(t, LeafDensity.from_mapping({1: Q(2), 2: Q(2)}))
        with pytest.raises(InputError, match="not strictly positive"):
            check_density(t, LeafDensity.from_mapping({1: Q(0), 2: Q(4)}))
        with pytest.raises(InputError, match="do not match"):
            check_density(t, LeafDensity.from_mapping({0: Q(1), 1: Q(1)}))

    def test_density_process(self):
        t = skewed_coin_two_period()
        z = LeafDensity.from_mapping({3: Q(4, 9), 4: Q(4, 3), 5: Q(4, 3), 6: Q(4)})
        proc = density_process(t, z)
        assert proc[0] == Q(1)
        assert proc[1] == Q(2, 3) and proc[2] == Q(2)
        assert proc[3] == Q(4, 9) and proc[6] == Q(4)


class TestReweight:
    def test_one_step_worked(self):
        t = reweight(skewed_coin(), LeafDensity.from_mapping({1: Q(2, 3), 2: Q(2)}))
        assert t.node(1).prob == Q(1, 2)
        assert t.node(2).prob == Q(1, 2)
        assert t.node(1).price == (Q(1),)

    def test_two_period_worked(self):
        z = LeafDensity.from_mapping({3: Q(4, 9), 4: Q(4, 3), 5: Q(4, 3), 6: Q(4)})
        assert reweight(skewed_coin_two_period(), z) == binomial(2)

    def test_identity_density(self):
        t = localized_arbitrage()
        z = LeafDensity.from_mapping({l: Q(1) for l in t.leaves()})
        assert reweight(t, z) == t

    def test_inverse_composition(self):
        rng = random.Random(11)
        for t in (skewed_coin_two_period(), binomial(3), localized_arbitrage()):
            leaves = list(t.leaves())
            raw = {l: Q(rng.randint(1, 9), rng.randint(1, 9)) for l in leaves}
            p = leaf_probabilities(t)
            mass = sum((p[l] * raw[l] for l in leaves), Q(0))
            z = LeafDensity.from_mapping({l: raw[l] / mass for l in leaves})
            back = {l: Q(1) / zl for l, zl in z.as_dict().items()}
            q = leaf_probabilities(reweight(t, z))
            mass_back = sum((q[l] * back[l] for l in leaves), Q(0))
            assert mass_back == Q(1)
            inv = LeafDensity.from_mapping(back)
            assert reweight(reweight(t, z), inv) == t

    def test_supports_unchanged(self):
        t = skewed_coin_two_period()
        z = LeafDensity.from_mapping({3: Q(4, 9), 4: Q(4, 3), 5: Q(4, 3), 6: Q(4)})
        rw = reweight(t, z)
        for nid in t.non_leaves():
            before = set(conditional_support(t, nid).values())
            after = set(conditional_support(rw, nid).values())
            assert before == after
