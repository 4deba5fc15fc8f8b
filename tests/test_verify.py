import copy
import pickle
import random

import pytest

import arbcheck.geometry
import arbcheck.linalg
import arbcheck.verify
from arbcheck import (
    Q,
    build_emm,
    conditional_support,
    equivalence_report,
    find_arbitrage,
    gains,
    scaled_gain_optimum,
    tree_to_json,
    validate,
    verify_martingale,
)
from arbcheck.errors import GeometryError, InputError, Record
from arbcheck.geometry import InRi, NotInRi
from arbcheck.lp import Infeasible, Optimal, Unbounded
from arbcheck.tree import LeafDensity, Node, ScenarioTree, Violation
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
from scaled_gain_oracle import scaled_gain_lp
from tree_oracle import assert_tree_loops_match, shipped_strategy_program
from helpers import (
    binomial,
    build,
    count_calls,
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

    def test_witness_over_several_nodes_has_max_norm_one(self, monkeypatch):
        # only node 2 (increments +2 and +3) is a one-step arbitrage, and
        # a one-node witness always exists, so the solver is stood in for
        # by one whose optimizer also trades at the root and at node 1;
        # the columns are children-first (node 2, node 1, the root), and
        # the max-norm is taken over every traded node
        t = build(1, (0, [
            ("1/2", (1, [("1/2", (0, [])), ("1/2", (3, []))])),
            ("1/2", (-1, [("1/2", (1, [])), ("1/2", (2, []))])),
        ]))
        monkeypatch.setattr(arbcheck.verify, "solve_lp",
                            lambda lp: Optimal((Q(4), Q(1), Q(2)), Q(1)))
        strat = find_arbitrage(t)
        assert strat == {0: (Q(1, 2),), 1: (Q(1, 4),), 2: (Q(1),)}
        g = gains(t, strat)
        assert all(v >= 0 for v in g.values()) and any(v > 0 for v in g.values())

    def test_columns_are_children_first_whatever_the_ids(self):
        # the ids are not breadth-first: node 7 is the parent of nodes 1
        # and 4, so numbering the non-leaves by id, or in reverse, would
        # not put every node before its parent
        nodes = [Node(0, None, Q(1), (Q(0),)), Node(7, 0, Q(1), (Q(1),)),
                 Node(1, 7, Q(1, 2), (Q(2),)), Node(4, 7, Q(1, 2), (Q(0),)),
                 Node(2, 1, Q(1, 2), (Q(3),)), Node(3, 1, Q(1, 2), (Q(4),)),
                 Node(5, 4, Q(1, 2), (Q(1),)), Node(6, 4, Q(1, 2), (Q(-1),))]
        tree = ScenarioTree(1, 3, nodes)
        lp = shipped_strategy_program(tree)
        # columns: node 4, node 1, node 7, the root; the leaf rows follow
        # the leaves by id, 2 and 3 under node 1, 5 and 6 under node 4
        assert [tuple(j for j, _ in nz) for nz, _, _ in lp.int_rows[:4]] == \
            [(1, 2, 3), (1, 2, 3), (0, 2, 3), (0, 2, 3)]
        assert_tree_loops_match(tree, 0, find_arbitrage(tree))

    def test_horizon_zero(self):
        assert find_arbitrage(single_chain(0)) is None

    def test_columns_only_at_pivot_coordinates(self):
        # both increments lie on the line through (1, 1, 0), whose
        # echelon row has its pivot at coordinate 0: one column, and the
        # witness is 0 at the two dependent coordinates
        t = one_step([(1, 1, 0), (2, 2, 0)], ["1/2", "1/2"])
        assert shipped_strategy_program(t).n_vars == 1
        assert find_arbitrage(t) == {0: (Q(1), ZERO, ZERO)}

    def test_constant_prices_solve_no_program(self, monkeypatch):
        # every increment is 0, so every node has rank 0 and no column
        flat = ((1, 2), [])
        t = build(2, ((1, 2), [("1/3", ((1, 2), [("1/2", flat), ("1/2", flat)])),
                               ("2/3", ((1, 2), [("1", flat)]))]))
        solves = count_calls(monkeypatch, arbcheck.verify, "solve_lp")
        assert find_arbitrage(t) is None
        assert solves == []


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

    def test_each_support_is_reduced_once(self, monkeypatch):
        # every reduction runs the integer echelon kernel, which
        # span_basis and in_span look up at call time; a support's atoms
        # reach it as their integer rows, and a call on a node's basis is
        # not one on its atoms, whose rows all differ from the basis row
        # (1,)
        calls = count_calls(monkeypatch, arbcheck.linalg, "_echelon")
        tree = build(1, (0, [
            ("1/2", (2, [("1/2", (3, [])), ("1/2", (5, []))])),
            ("1/2", (-1, [("1/2", (0, [])), ("1/2", (-3, []))])),
        ]))
        rep = equivalence_report(tree)
        assert {type(c) for c in rep.certificates.values()} == {InRi, NotInRi}
        reduced = [tuple(map(tuple, rows)) for (rows,) in calls]
        assert all(type(a) is int for rows in reduced for row in rows for a in row)
        for nid in tree.non_leaves():
            support = conditional_support(tree, nid)
            rows, _ = support.int_values
            assert rows != tuple(row for row, _ in support.int_basis)
            assert reduced.count(rows) == 1

    def test_no_basis_is_reduced_again(self, monkeypatch):
        # check_ri_certificate and support_function test span membership
        # against each support's integer echelon rows as they stand, so
        # the echelon kernel runs once per support, when it is built, and
        # once more in each kernel_line call, on a support's transposed
        # atoms rather than its basis
        calls = count_calls(monkeypatch, arbcheck.linalg, "_echelon")
        lines = count_calls(monkeypatch, arbcheck.geometry, "kernel_line")
        tree = build(1, (0, [
            ("1/2", (2, [("1/2", (3, [])), ("1/2", (5, []))])),
            ("1/2", (-1, [("1/2", (0, [])), ("1/2", (-3, []))])),
        ]))
        rep = equivalence_report(tree)
        assert {type(c) for c in rep.certificates.values()} == {InRi, NotInRi}
        atoms = [conditional_support(tree, nid).int_values[0] for nid in tree.non_leaves()]
        assert all(rows in atoms for (rows,) in lines)
        assert len(calls) == len(tree.non_leaves()) + len(lines)

    def test_rejects_invalid_tree(self):
        from arbcheck.tree import Node, ScenarioTree
        bad = ScenarioTree(1, 2, [Node(0, None, Q(1), (ZERO,)),
                                  Node(1, 0, Q(1), (Q(1),))])
        with pytest.raises(InputError):
            equivalence_report(bad)


def _verify_doubled_density(tree):
    return verify_martingale(tree, LeafDensity.from_mapping({1: Q(2), 2: Q(2)}))


@pytest.mark.parametrize("entry", [
    equivalence_report, find_arbitrage, build_emm, scaled_gain_optimum,
    _verify_doubled_density,  # unit mass under the halved probabilities
])
def test_entry_points_reject_invalid_tree(entry):
    halved = one_step([1, -1], ["1/4", "1/4"])  # child probabilities sum to 1/2
    with pytest.raises(InputError, match="prob_sum"):
        entry(halved)
    for not_a_tree in ("x", None):
        with pytest.raises(InputError, match="expected a ScenarioTree"):
            entry(not_a_tree)


class TestScaledGainOptimum:
    def test_worked_one_step(self):
        assert scaled_gain_optimum(skewed_coin()) == Q(2, 3)

    def test_two_period(self):
        assert scaled_gain_optimum(skewed_coin_two_period()) == Q(2, 3)

    def test_zero_for_martingale(self):
        assert scaled_gain_optimum(binomial(2)) == ZERO

    def test_zero_for_deterministic(self):
        assert scaled_gain_optimum(single_chain(2)) == ZERO
        assert scaled_gain_optimum(single_chain(0)) == ZERO  # no non-leaf

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
            # the closed form against the budgeted program solved as one LP
            assert beta == scaled_gain_lp(t)
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
        {"assets": 1.5}, {"max_branching": "2"}, {"max_denominator": 2.0},
        {"value_range": 5}, {"value_range": (1, 2, 3)}, {"value_range": (False, True)},
    ])
    def test_rejects_bad_params(self, kwargs):
        with pytest.raises(InputError):
            random_tree(TreeParams(**kwargs), 0)


class Pair(Record):
    __slots__ = ("first", "second")


class TestRecords:
    """The package's value classes compare by kind and fields, hash by
    their fields, and cannot be changed after construction."""

    def test_kinds_with_equal_fields_differ(self):
        v = (Q(1), Q(-1))
        assert Unbounded(v) != Infeasible(v)
        assert InRi(v) != NotInRi(v)
        assert Unbounded(v) == Unbounded((Q(1), Q(-1)))

    def test_fields_are_read_only(self):
        ray = Unbounded((Q(1),))
        with pytest.raises(AttributeError):
            ray.ray = (Q(2),)
        with pytest.raises(AttributeError):
            ray.extra = 1
        with pytest.raises(AttributeError):
            del ray.ray
        with pytest.raises(AttributeError):
            TreeParams().assets = 2
        assert ray == Unbounded((Q(1),))

    def test_equal_nodes_hash_equal(self):
        a = Node(1, 0, Q(1, 2), (Q(3),))
        b = Node(1, 0, Q(1, 2), (Q(3),))
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
        assert a != Node(1, 0, Q(1, 2), (Q(4),))

    def test_tree_params_defaults(self):
        assert TreeParams() == TreeParams(assets=1, steps=1, max_branching=2,
                                          value_range=(-8, 8), max_denominator=16,
                                          mode="generic")

    def test_positional_and_keyword_construction_agree(self):
        assert Pair(1, 2) == Pair(first=1, second=2) == Pair(1, second=2)
        assert Pair(second=2, first=1).second == 2
        node = Node(1, 0, Q(1, 2), (Q(3),))
        assert node == Node(id=1, parent=0, prob=Q(1, 2), price=(Q(3),))
        assert node == Node(1, 0, price=(Q(3),), prob=Q(1, 2))

    @pytest.mark.parametrize("args, kwargs", [
        ((1,), {}),  # missing
        ((), {"first": 1}),  # missing
        ((1, 2, 3), {}),  # extra
        ((1, 2), {"first": 1}),  # given twice
        ((1,), {"second": 2, "third": 3}),  # unknown
        ((1,), {"secnd": 2}),  # unknown and missing
    ])
    def test_bad_fields_raise_type_error(self, args, kwargs):
        with pytest.raises(TypeError, match="takes the fields first, second"):
            Pair(*args, **kwargs)

    def test_only_checked_records_define_init(self):
        def subclasses(cls):
            for sub in cls.__subclasses__():
                yield sub
                yield from subclasses(sub)

        with_init = {cls.__name__ for cls in subclasses(Record)
                     if cls.__module__.startswith("arbcheck.") and "__init__" in vars(cls)}
        assert with_init == {"LinearProgram", "ConditionalSupport", "TreeParams", "ScenarioTree"}

    def test_repr_copy_and_pickle(self):
        v = Violation(None, "prob_sum", "sums to 1/2")
        assert repr(v) == "Violation(node=None, rule='prob_sum', detail='sums to 1/2')"
        node = Node(1, 0, Q(1, 2), (Q(3),))
        assert copy.copy(node) == node
        assert pickle.loads(pickle.dumps(node)) == node


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
