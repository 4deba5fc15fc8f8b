"""One input boundary for every public name.

Each public callable in ``arbcheck``'s namespace has a row here: either
calls that hand it one bad argument, each of which must raise
InputError (not an AttributeError, a TypeError or a silent result), or
a place among the types that check nothing themselves (the exceptions,
the scalar type, and the records whose fields the functions that take
them check). A new export without a row fails
``test_every_public_callable_has_a_row``.
"""

import pytest

import arbcheck
from arbcheck import (
    ConditionalSupport,
    InputError,
    LinearProgram,
    NotInRi,
    Q,
    ScenarioTree,
    TreeParams,
    arbitrage_direction,
    build_emm,
    check_ri_certificate,
    conditional_mean,
    conditional_support,
    density_process,
    ensure_valid,
    equivalence_report,
    find_arbitrage,
    format_rational,
    in_span,
    leaf_probabilities,
    make_lp,
    one_step_density,
    one_step_scale,
    parse_rational,
    path_probabilities,
    random_tree,
    report_to_json,
    ri_conv_contains_origin,
    scaled_gain_optimum,
    separation_optimum,
    solve_lp,
    span_basis,
    support_function,
    tree_from_json,
    tree_to_json,
    validate,
    verify_martingale,
)
from arbcheck.tree import LeafDensity
from helpers import one_step, skewed_coin, skewed_coin_two_period

DENSITY = LeafDensity.from_mapping({1: Q(1), 2: Q(1)})

BAD_CALLS = {
    "arbitrage_direction": [lambda: arbitrage_direction("x")],
    "build_emm": [lambda: build_emm("x")],
    "check_ri_certificate": [lambda: check_ri_certificate("x", NotInRi((Q(1),)))],
    "conditional_mean": [lambda: conditional_mean("x")],
    "conditional_support": [lambda: conditional_support("x", 0),
                            lambda: conditional_support(skewed_coin(), 7),
                            lambda: conditional_support(skewed_coin_two_period(), True),
                            lambda: conditional_support(skewed_coin(), [0])],
    "density_process": [lambda: density_process("x", DENSITY),
                        lambda: density_process(skewed_coin(), "x"),
                        lambda: density_process(one_step([1, -1], ["1/4", "1/4"]), DENSITY),
                        lambda: density_process(skewed_coin(), LeafDensity(None)),
                        lambda: density_process(skewed_coin(), LeafDensity(5)),
                        lambda: density_process(skewed_coin(), LeafDensity(((1,),))),
                        lambda: density_process(skewed_coin(), LeafDensity((([1], Q(1)),)))],
    "ensure_valid": [lambda: ensure_valid("x")],
    "equivalence_report": [lambda: equivalence_report("x"),
                           lambda: equivalence_report(skewed_coin(), seed=1.5),
                           lambda: equivalence_report(skewed_coin(), seed=True),
                           lambda: equivalence_report(skewed_coin(), seed="7")],
    "find_arbitrage": [lambda: find_arbitrage("x")],
    "format_rational": [lambda: format_rational(0.5), lambda: format_rational("x"),
                        lambda: format_rational(1), lambda: format_rational(None)],
    "in_span": [lambda: in_span("x", []), lambda: in_span((Q(1),), None),
                lambda: in_span((Q(1),), [(Q(1),)])],
    "leaf_probabilities": [lambda: leaf_probabilities("x")],
    "make_lp": [lambda: make_lp("x", ({}, 1), []),
                lambda: make_lp(1, ({}, 1), [({0: 1}, 0, False, 0)]),
                lambda: make_lp(1, ({0: 0.5}, 1), []), lambda: make_lp(1, {0: Q(1)}, []),
                lambda: make_lp(1, ({}, 1), [({0: Q(1)}, Q(0), False)])],
    "one_step_density": [lambda: one_step_density("x")],
    "one_step_scale": [lambda: one_step_scale("x")],
    "parse_rational": [lambda: parse_rational(5), lambda: parse_rational("0.5")],
    "path_probabilities": [lambda: path_probabilities("x")],
    "random_tree": [lambda: random_tree("x", 1), lambda: random_tree(None, 1),
                    lambda: random_tree(TreeParams(assets=0), 1),
                    lambda: random_tree(TreeParams(), None),
                    lambda: random_tree(TreeParams(), True),
                    lambda: random_tree(TreeParams(), [1]),
                    lambda: random_tree(TreeParams(), (1,)),
                    lambda: random_tree(TreeParams(), 1.5)],
    "report_to_json": [lambda: report_to_json("x"), lambda: report_to_json(None)],
    "ri_conv_contains_origin": [lambda: ri_conv_contains_origin("x")],
    "scaled_gain_optimum": [lambda: scaled_gain_optimum("x")],
    "separation_optimum": [lambda: separation_optimum("x")],
    "solve_lp": [lambda: solve_lp("x"), lambda: solve_lp(None)],
    "span_basis": [lambda: span_basis(None), lambda: span_basis([(0.5,)]),
                   lambda: span_basis((((1,),), 0)), lambda: span_basis((((Q(1),),), 1)),
                   lambda: span_basis([(Q(1),)])],
    "support_function": [lambda: support_function("x", (Q(1),))],
    "tree_from_json": [lambda: tree_from_json(5), lambda: tree_from_json("{")],
    "tree_to_json": [lambda: tree_to_json("x")],
    "validate": [lambda: validate("x")],
    "verify_martingale": [lambda: verify_martingale("x", DENSITY),
                          lambda: verify_martingale(skewed_coin(), "x"),
                          lambda: verify_martingale(skewed_coin(), LeafDensity("x")),
                          lambda: verify_martingale(skewed_coin(), LeafDensity(((1,),))),
                          lambda: verify_martingale(skewed_coin(), LeafDensity(5)),
                          lambda: verify_martingale(skewed_coin(),
                                                    LeafDensity(((1, Q(1)), ([2], Q(1)))))],
    "ConditionalSupport": [lambda: ConditionalSupport(0, "x", ((1,), 1)),
                           lambda: ConditionalSupport("x", (((1,), (-1,)), 1), ((1, 1), 2)),
                           lambda: ConditionalSupport(True, (((1,), (-1,)), 1), ((1, 1), 2))],
    "LinearProgram": [lambda: LinearProgram("x", (), (), (None,)),
                      lambda: LinearProgram(((1,), 1), ((((0, 0),), 0, 1),), (False,), (None,))],
    "ScenarioTree": [lambda: ScenarioTree(1, 1, "x")],
}

# exception types, the scalar type, and records that check nothing
# themselves: the functions that take them check them
CHECK_NOTHING = {
    "GeometryError", "InputError", "InternalError", "Q", "Rational",
    "Node", "Violation", "LeafDensity", "InRi", "NotInRi", "Optimal", "Infeasible", "Unbounded",
    "OneStepDensity", "MartingaleConstruction", "EquivalenceReport", "TreeParams",
}


def test_every_public_callable_has_a_row():
    public = {name for name, value in vars(arbcheck).items()
              if callable(value) and not name.startswith("_")}
    assert public == set(BAD_CALLS) | CHECK_NOTHING
    assert not set(BAD_CALLS) & CHECK_NOTHING


@pytest.mark.parametrize("call", [
    pytest.param(call, id=f"{name}-{k}")
    for name, calls in BAD_CALLS.items() for k, call in enumerate(calls)
])
def test_a_bad_argument_raises_input_error(call):
    with pytest.raises(InputError):
        call()
