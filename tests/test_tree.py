import copy
import pickle
import random

import pytest

import arbcheck.tree
from arbcheck import (
    NotInRi,
    Q,
    ScenarioTree,
    arbitrage_direction,
    check_ri_certificate,
    conditional_mean,
    conditional_support,
    leaf_probabilities,
    one_step_density,
    one_step_scale,
    path_probabilities,
    ri_conv_contains_origin,
    separation_optimum,
    support_function,
    tree_from_json,
    tree_to_json,
    validate,
    verify_martingale,
)
from arbcheck.errors import InputError
from arbcheck.tree import (
    ConditionalSupport,
    LeafDensity,
    Node,
    check_density,
    density_process,
    _integer_form,
    ensure_valid,
    int_gains,
)
from helpers import (
    atom_values,
    binomial,
    build,
    count_calls,
    localized_arbitrage,
    one_step,
    rational_atoms,
    reweight,
    single_chain,
    skewed_coin,
    skewed_coin_two_period,
)
from tree_oracle import assert_support_matches_constructor

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

    def test_order_and_increment(self):
        """Each edge's increment, in the integer form and as the value
        of the child's atom in its parent's support; no edge leads into
        the root."""
        t = skewed_coin_two_period()
        assert [nd.id for nd in t.order] == [0, 1, 2, 3, 4, 5, 6]
        den, increment, atom = _integer_form(t)
        for nd in t.order[1:]:
            parent = t.node(nd.parent)
            assert t.order.index(parent) < t.order.index(nd)
            x = tuple(a - b for a, b in zip(nd.price, parent.price))
            assert tuple(Q(v, den) for v in increment[nd.id]) == x
            assert atom_values(conditional_support(t, nd.parent))[atom[nd.id]] == x
        assert t.root not in increment and t.root not in atom

    def test_increment_computed_once(self):
        t = skewed_coin_two_period()
        form = _integer_form(t)
        assert _integer_form(t) is form and t._integer == [form]
        # the prices are integers, so node 3's atom row is its increment
        assert conditional_support(t, 1).int_values == (((1,), (-1,)), 1)
        assert conditional_support(t, 1).int_values[0][form[2][3]] == form[1][3]

    @pytest.mark.parametrize("bad", [True, False, 1.0, "0", [0], None],
                             ids=["True", "False", "float", "str", "list", "None"])
    def test_node_id_that_is_not_an_int_rejected(self, bad):
        t = skewed_coin_two_period()
        conditional_support(t, 0)  # a cached support is no way round the check
        for call in (t.node, t.children, t.depth, t.is_leaf,
                     lambda nid: conditional_support(t, nid)):
            with pytest.raises(InputError, match="node id must be an integer"):
                call(bad)
        assert t._supports.keys() == {0}

    @pytest.mark.parametrize("d, horizon, child", [
        (1.7, 1, Node(1, 0, R1, (Q(1),))),
        (True, 1, Node(1, 0, R1, (Q(1),))),
        (1, True, Node(1, 0, R1, (Q(1),))),
        (1, "1", Node(1, 0, R1, (Q(1),))),
        (1, 1, Node(1.0, 0, R1, (Q(1),))),
        (1, 1, Node(1, [0], R1, (Q(1),))),
        (1, 1, Node(1, False, R1, (Q(1),))),
    ])
    def test_non_integer_fields_rejected(self, d, horizon, child):
        with pytest.raises(InputError, match="must be an integer"):
            ScenarioTree(d, horizon, [Node(0, None, R1, (Q(0),)), child])

    @pytest.mark.parametrize("child, message", [
        ({"id": 1, "parent": 0}, "Node records"),
        ((1, 0, R1, (Q(1),)), "Node records"),
        (Node(1, 0, "1", (Q(1),)), "probability must be a Rational"),
        (Node(1, 0, 0.5, (Q(1),)), "probability must be a Rational"),
        (Node(1, 0, None, (Q(1),)), "probability must be a Rational"),
        (Node(1, 0, R1, ("1",)), "price must be a tuple of Rationals"),
        (Node(1, 0, R1, (1.5,)), "price must be a tuple of Rationals"),
        (Node(1, 0, R1, [Q(1)]), "price must be a tuple of Rationals"),
        (Node(1, 0, R1, "1"), "price must be a tuple of Rationals"),
    ])
    def test_non_exact_nodes_rejected(self, child, message):
        with pytest.raises(InputError, match=message):
            ScenarioTree(1, 1, [Node(0, None, R1, (Q(0),)), child])

    @pytest.mark.parametrize("nodes", [None, 3])
    def test_nodes_that_are_not_iterable_rejected(self, nodes):
        with pytest.raises(InputError, match="iterable of Node records"):
            ScenarioTree(1, 1, nodes)


class TestImmutable:
    def test_nodes_cannot_change_after_validation(self):
        t = skewed_coin()
        ensure_valid(t)
        with pytest.raises(AttributeError):
            t.nodes = one_step([1, 2], ["1/2", "1/2"]).nodes
        assert t == skewed_coin() and validate(t) == []
        assert atom_values(conditional_support(t, 0)) == ((Q(1),), (Q(-1),))

    def test_no_slot_can_be_assigned_or_deleted(self):
        t = skewed_coin_two_period()
        for name in ScenarioTree.__slots__ + ("extra",):
            with pytest.raises(AttributeError):
                setattr(t, name, None)
        for name in ScenarioTree.__slots__:
            with pytest.raises(AttributeError):
                delattr(t, name)
        assert t == skewed_coin_two_period()

    def test_copy_and_pickle_rebuild_with_empty_caches(self):
        t = skewed_coin_two_period()
        ensure_valid(t)
        _integer_form(t)
        conditional_support(t, 0)
        assert t._integer
        for twin in (copy.copy(t), copy.deepcopy(t), pickle.loads(pickle.dumps(t))):
            assert twin is not t and twin == t and hash(twin) == hash(t)
            assert twin.order == t.order and twin.children(0) == (1, 2)
            assert twin._integer == [] and twin._supports == {}
            assert not twin._passed
            assert conditional_support(twin, 0) == conditional_support(t, 0)
            assert _integer_form(twin) == _integer_form(t)


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

    @pytest.mark.parametrize("check", [validate, ensure_valid])
    def test_anything_but_a_tree_is_refused(self, check):
        for not_a_tree in ("x", None, tree_to_json(skewed_coin())):
            with pytest.raises(InputError, match="expected a ScenarioTree"):
                check(not_a_tree)

    def test_ensure_valid_records_only_a_pass(self, monkeypatch):
        calls = count_calls(monkeypatch, arbcheck.tree, "validate")
        good = skewed_coin()
        assert ensure_valid(good) is good and ensure_valid(good) is good
        assert len(calls) == 1
        bad = one_step([1, -1], ["1/4", "1/4"])
        for _ in range(2):
            with pytest.raises(InputError, match="prob_sum"):
                ensure_valid(bad)
        assert len(calls) == 3

    def test_a_passing_validate_is_recorded(self, monkeypatch):
        good, bad = skewed_coin(), one_step([1, -1], ["1/4", "1/4"])
        assert validate(good) == [] and validate(bad) != []
        calls = count_calls(monkeypatch, arbcheck.tree, "validate")
        assert ensure_valid(good) is good
        assert calls == []  # the pass above is not repeated
        with pytest.raises(InputError, match="prob_sum"):
            ensure_valid(bad)
        assert len(calls) == 1  # the failure above recorded nothing


def half_mass():
    """A one-step tree whose child probabilities sum to 1/2."""
    return one_step([1, -1], ["1/4", "1/4"])


class TestTreeFunctionsRefuseBadTrees:
    """Anything but a tree is refused by name, and an invalid tree by its
    violations, before any of the tree's data is read."""

    @staticmethod
    def refused(call):
        with pytest.raises(InputError, match="expected a ScenarioTree"):
            call("x")
        with pytest.raises(InputError, match="prob_sum"):
            call(half_mass())

    def test_conditional_support(self):
        self.refused(lambda t: conditional_support(t, 0))

    def test_gains(self):
        self.refused(lambda t: int_gains(t, {0: (Q(1),)}))

    def test_path_probabilities(self):
        self.refused(path_probabilities)

    def test_leaf_probabilities(self):
        self.refused(leaf_probabilities)

    def test_tree_to_json(self):
        with pytest.raises(InputError, match="expected a ScenarioTree"):
            tree_to_json("x")
        t = half_mass()  # an invalid tree is still written out
        assert tree_from_json(tree_to_json(t)) == t


class TestIntegerForm:
    def test_prices_over_one_denominator(self):
        t = build(2, ((Q(1, 2), 0), [
            ("1/2", ((Q(3, 2), Q(1, 3)), [])),
            ("1/4", ((Q(-1, 2), 0), [])),
            ("1/4", ((Q(3, 2), Q(1, 3)), [])),
        ]))
        den, increment, atom = _integer_form(t)
        assert den == 6
        assert increment == {1: (6, 2), 2: (-6, 0), 3: (6, 2)}
        assert atom == {1: 0, 2: 1, 3: 0}
        assert _integer_form(t) is t._integer[0]
        cs = conditional_support(t, 0)
        assert cs.int_values == (((3, 1), (-3, 0)), 3)
        assert rational_atoms(cs) == (((Q(1), Q(1, 3)), Q(3, 4)), ((Q(-1), Q(0)), Q(1, 4)))
        # each child's increment is its atom's value: equal increments are one atom
        assert [atom_values(cs)[atom[c]] for c in (1, 2, 3)] == \
            [(Q(1), Q(1, 3)), (Q(-1), Q(0)), (Q(1), Q(1, 3))]

    def test_invalid_trees_have_none(self):
        with pytest.raises(InputError, match="prob_sum"):
            _integer_form(half_mass())
        with pytest.raises(InputError, match="prob_sum"):
            conditional_support(half_mass(), 0)
        with pytest.raises(InputError, match="expected a ScenarioTree"):
            _integer_form("x")


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
        assert (cs.int_values, cs.int_probs) == ((((1,), (-1,)), 1), ((3, 1), 4))
        assert rational_atoms(cs) == (((Q(1),), Q(3, 4)), ((Q(-1),), Q(1, 4)))
        assert cs.d == 1
        assert conditional_mean(cs) == (Q(1, 2),)

    def test_equal_increments_merge(self):
        t = one_step([1, 1, -1], ["1/3", "1/6", "1/2"])
        cs = conditional_support(t, 0)
        assert rational_atoms(cs) == (((Q(1),), Q(1, 2)), ((Q(-1),), Q(1, 2)))

    def test_leaf_has_no_support(self):
        t = skewed_coin()
        for _ in range(2):
            with pytest.raises(InputError, match="leaf"):
                conditional_support(t, 1)

    def test_built_once_per_tree(self):
        t = skewed_coin_two_period()
        for nid in t.non_leaves():
            assert conditional_support(t, nid) is conditional_support(t, nid)
        assert conditional_support(t, 0) is not conditional_support(skewed_coin_two_period(), 0)
        assert conditional_support(t, 0) == conditional_support(skewed_coin_two_period(), 0)

    def test_basis(self):
        t = one_step([(1, 2, 0), (2, 4, 0), (-1, -2, 0)], ["1/3", "1/3", "1/3"])
        assert conditional_support(t, 0).int_basis == ((0, (1, 2, 0)),)
        flat = one_step([(0, 0), (0, 0)], ["1/2", "1/2"])
        assert conditional_support(flat, 0).int_basis == ()

    def test_copy_and_pickle_keep_the_basis(self):
        """Supports that ``conditional_support`` built, one from prices
        over 6, rebuilt through the constructor: equal, of equal hash and
        repr, field by field."""
        cs = conditional_support(one_step([(1, 0), (0, 1), (-1, -1)], ["1/3", "1/3", "1/3"]), 0)
        over_six = one_step([(1, Q(1, 2)), (-1, 0), (-1, 0)], ["1/4", "1/4", "1/2"],
                            root=(Q(1, 6), Q(1, 3)))
        for built in (cs, conditional_support(over_six, 0)):
            for twin in (copy.copy(built), copy.deepcopy(built),
                         pickle.loads(pickle.dumps(built))):
                assert twin == built and hash(twin) == hash(built) and repr(twin) == repr(built)
                for name in ConditionalSupport.__slots__:
                    assert getattr(twin, name) == getattr(built, name), name
        assert cs.int_basis == ((0, (1, 0)), (1, (0, 1)))

    def test_integer_forms_and_their_copies(self):
        """The constructor puts the atoms' integer forms in lowest terms
        and derives the basis's; copy and pickle rebuild them equal."""
        cs = ConditionalSupport(4, (((6, 0), (0, 4), (-12, -12)), 12), ((2, 6, 4), 12))
        assert cs.int_values == (((3, 0), (0, 2), (-6, -6)), 6)
        assert cs.int_probs == ((1, 3, 2), 6)
        assert cs.int_basis == ((0, (1, 0)), (1, (0, 1)))
        assert cs.d == 2
        assert cs == ConditionalSupport(4, (((3, 0), (0, 2), (-6, -6)), 6), ((1, 3, 2), 6))
        line = ConditionalSupport(0, (((2, 3),), 2), ((1,), 1))
        assert line.int_basis == ((0, (2, 3)),)
        for twin in (copy.copy(cs), copy.deepcopy(cs), pickle.loads(pickle.dumps(cs))):
            assert twin == cs
            assert (twin.int_values, twin.int_probs, twin.int_basis) \
                == (cs.int_values, cs.int_probs, cs.int_basis)

    def test_integer_form_from_the_tree(self):
        """The tree's increments over its common denominator D, divided
        by their gcd with D: the prices here are over 6, the values over 2."""
        t = one_step([(1, Q(1, 2)), (-1, 0), (-1, 0)], ["1/4", "1/4", "1/2"],
                     root=(Q(1, 6), Q(1, 3)))
        cs = conditional_support(t, 0)
        assert cs.int_values == (((2, 1), (-2, 0)), 2)
        assert cs.int_probs == ((1, 3), 4)
        assert cs.int_basis == ((0, (1, 0)), (1, (0, 1)))
        assert_support_matches_constructor(t, 0)

    @pytest.mark.parametrize("call", [
        ri_conv_contains_origin,
        lambda s: check_ri_certificate(s, NotInRi((Q(1),))),
        arbitrage_direction,
        separation_optimum,
        lambda s: support_function(s, (Q(1),)),
        one_step_density,
        one_step_scale,
        conditional_mean,
    ], ids=["ri_conv_contains_origin", "check_ri_certificate", "arbitrage_direction",
            "separation_optimum", "support_function", "one_step_density", "one_step_scale",
            "conditional_mean"])
    @pytest.mark.parametrize("bad", ["x", None, ((Q(1),), Q(1))])
    def test_anything_but_a_support_is_refused(self, call, bad):
        with pytest.raises(InputError, match="expected a ConditionalSupport"):
            call(bad)

    def test_empty_or_mixed_atoms_rejected(self):
        probs = ((1, 1), 2)
        with pytest.raises(InputError, match="non-empty tuple"):
            ConditionalSupport(0, ((), 1), ((), 1))
        with pytest.raises(InputError, match="of one length"):
            ConditionalSupport(0, (((1,), (1, 2)), 1), probs)
        with pytest.raises(InputError, match="non-empty tuple"):
            ConditionalSupport(0, ([(1,), (-1,)], 1), probs)
        # duplicate values stay separate atoms
        assert len(ConditionalSupport(0, (((1,), (1,)), 1), probs).int_values[0]) == 2

    @pytest.mark.parametrize("node, values, probs, message", [
        ("x", (((1,), (-1,)), 1), ((1, 1), 2), "support node must be an integer"),
        (True, (((1,), (-1,)), 1), ((1, 1), 2), "support node must be an integer"),
        (0.0, (((1,), (-1,)), 1), ((1, 1), 2), "support node must be an integer"),
        (0, "x", ((1, 1), 2), "values must be an .* pair"),
        (0, (((1,), (-1,)),), ((1, 1), 2), "values must be an .* pair"),
        (0, (((1,), (-1,)), 0), ((1, 1), 2), "values have denominator 0"),
        (0, (((1,), (-1,)), 1.0), ((1, 1), 2), "values have denominator 1.0"),
        (0, (((1,), (-1,)), True), ((1, 1), 2), "values have denominator True"),
        (0, (((1,), (Q(-1),)), 1), ((1, 1), 2), "int tuples"),
        (0, (((1,), (True,)), 1), ((1, 1), 2), "int tuples"),
        (0, (((1,), [-1]), 1), ((1, 1), 2), "int tuples"),
        (0, (((1,), (-1,)), 1), None, "weights must be an .* pair"),
        (0, (((1,), (-1,)), 1), ((1, 1), -2), "weights have denominator -2"),
        (0, (((1,), (-1,)), 1), ((1,), 1), "one int > 0 per value"),
        (0, (((1,), (-1,)), 1), ((1, 1, 1), 3), "one int > 0 per value"),
        (0, (((1,), (-1,)), 1), ((1, 0), 1), "one int > 0 per value"),
        (0, (((1,), (-1,)), 1), ((3, -1), 2), "one int > 0 per value"),
        (0, (((1,), (-1,)), 1), ((Q(1), 1), 2), "one int > 0 per value"),
        (0, (((1,), (-1,)), 1), ([1, 1], 2), "one int > 0 per value"),
    ])
    def test_malformed_integer_forms_rejected(self, node, values, probs, message):
        with pytest.raises(InputError, match=message):
            ConditionalSupport(node, values, probs)

    def test_two_assets(self):
        t = one_step([(1, 0), (0, 1), (-1, -1)], ["1/3", "1/3", "1/3"])
        cs = conditional_support(t, 0)
        assert cs.d == 2
        assert conditional_mean(cs) == (Q(0), Q(0))


def gains(tree, strategy):
    """``int_gains`` as one Rational per leaf."""
    nums, den = int_gains(tree, strategy)
    return {leaf: Q(v, den) for leaf, v in nums.items()}


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
            int_gains(skewed_coin_two_period(), {0: (Q(1),)})

    def test_wrong_dim(self):
        with pytest.raises(InputError):
            int_gains(skewed_coin(), {0: (Q(1), Q(2))})
        for inexact in ((0.5,), ("1",), (1,), 0.5, None, "1"):
            with pytest.raises(InputError, match="Rationals"):
                int_gains(skewed_coin(), {0: inexact})
        for not_a_mapping in ("abc", None, [(Q(1),)]):
            with pytest.raises(InputError, match="mapping"):
                int_gains(skewed_coin(), not_a_mapping)
        assert gains(skewed_coin(), {0: [Q(2)]}) == {1: Q(2), 2: Q(-2)}

    def test_linearity(self):
        t = skewed_coin_two_period()
        rng = random.Random(3)
        draw = lambda: {n: (Q(rng.randint(-4, 4)),) for n in t.non_leaves()}
        for _ in range(10):
            a, b = draw(), draw()
            combo = {k: (a[k][0] * 3 + b[k][0],) for k in a}
            ga, gb, gc = gains(t, a), gains(t, b), gains(t, combo)
            assert all(gc[l] == 3 * ga[l] + gb[l] for l in gc)

    @pytest.mark.parametrize("strategy, message", [
        ({False: (Q(1),)}, "node id must be an integer, got False"),  # False == 0, not node 0
        ({0.0: (Q(1),)}, "node id must be an integer, got 0.0"),
        ({0: (Q(1),), 1: "junk", "x": None}, "node id must be an integer, got 'x'"),
        ({0: (Q(1),), 1: "junk"}, r"given at \[1\], which are not non-leaf"),
        ({0: (Q(1),), 7: (Q(1),)}, r"given at \[7\], which are not non-leaf"),
    ], ids=["bool", "float", "string", "leaf", "unknown"])
    def test_a_key_that_is_not_a_non_leaf_id_is_refused(self, strategy, message):
        with pytest.raises(InputError, match=message):
            int_gains(skewed_coin(), strategy)


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

    @pytest.mark.parametrize("key", ["a", False, 1.5, None, (1,)])
    def test_from_mapping_refuses_a_key_that_is_not_an_int(self, key):
        # checked before the keys are sorted, where "a" against 1 is a TypeError
        with pytest.raises(InputError, match="density leaf id must be an integer"):
            LeafDensity.from_mapping({1: Q(1), key: Q(1)})

    @pytest.mark.parametrize("not_a_mapping", [[1, 2], None, 5])
    def test_from_mapping_refuses_what_is_not_a_mapping(self, not_a_mapping):
        with pytest.raises(InputError, match="is a \\{leaf id: z\\} mapping"):
            LeafDensity.from_mapping(not_a_mapping)

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
        for inexact in ({1: 1.0, 2: 1.0}, {1: "1", 2: "1"}, {1: Q(2), 2: 0.5}):
            with pytest.raises(InputError, match="not a Rational"):
                check_density(t, LeafDensity.from_mapping(inexact))
        for not_a_density in ({1: Q(1), 2: Q(1)}, [Q(1), Q(1)], None):
            with pytest.raises(InputError, match="not a LeafDensity"):
                check_density(t, not_a_density)
            with pytest.raises(InputError, match="not a LeafDensity"):
                density_process(t, not_a_density)

    def test_check_density_rejects_a_repeated_leaf(self):
        # as a dict, the first value for leaf 1 would be dropped unseen
        z = LeafDensity(((1, Q(5)), (1, Q(1)), (2, Q(1))))
        with pytest.raises(InputError, match="more than once"):
            check_density(skewed_coin(), z)
        with pytest.raises(InputError, match="more than once"):
            verify_martingale(skewed_coin(), z)

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
            before = set(atom_values(conditional_support(t, nid)))
            after = set(atom_values(conditional_support(rw, nid)))
            assert before == after
