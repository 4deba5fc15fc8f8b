"""Acceptance gate for the package: eight executable criteria.

Every check is exact; there are no numeric tolerances anywhere.  Each
test prints one "criterion N: PASS/FAIL" line (visible under `pytest -s`
or in the failure report).  Criteria 1, 2, 3 and 5 share a single
1000-tree seeded sweep, so the first of them to run pays the build cost.
"""

import hashlib
import json
import random
import time

import pytest

import arbcheck.emm
import arbcheck.geometry
import arbcheck.verify
from arbcheck import (
    Q,
    build_emm,
    conditional_support,
    equivalence_report,
    gains,
    leaf_probabilities,
    scaled_gain_optimum,
    verify_martingale,
)
from arbcheck.emm import one_step_density, one_step_scale
from arbcheck.errors import GeometryError
from arbcheck.geometry import (
    InRi,
    NotInRi,
    arbitrage_direction,
    check_ri_certificate,
    ri_conv_contains_origin,
    separation_optimum,
)
from arbcheck.lp import solve_lp
from arbcheck.rationals import int_row
from arbcheck.tree import LeafDensity, check_density
from arbcheck.verify import MODES, TreeParams, random_tree, report_to_json
from helpers import (assert_in_span_matches_reference, atom_values, binomial, reweight,
                     skewed_coin, support)
from lp_oracle import oracle_check, random_lp
from node_program_oracle import assert_floor_f_density_matches, expected_node, shipped_node
from scaled_gain_oracle import scaled_gain_lp
from tree_oracle import (assert_full_strategy_program_matches, assert_support_matches_constructor,
                         assert_tree_loops_match)

ZERO = Q(0)
ONE = Q(1)

SWEEP_SIZE = 1000
SWEEP_BUDGET_SECONDS = 300.0
# sha256 of the sweep's report_to_json lines; pins every verdict, witness
# and certificate the routes return, pivot for pivot
SWEEP_REPORTS_SHA256 = "511c1a86f1de2f501803639313c90776ed3d299aa4b9ab8cf3ee54894382ba97"
# the same lines with each arbitrage witness reduced to whether it is
# present; pins everything but the strategy route's choice of witness
SWEEP_VERDICTS_SHA256 = "98636b201792691c1441c2296f631fc5b5669715c7f105d1c9f9e817d6855be0"


def _sweep_params(seed):
    """Deterministic parameter mix covering the full advertised grid:
    d in 1..3, horizon in 1..4, branching cap in 2..4, both generator
    modes, denominators up to 16."""
    return TreeParams(
        assets=1 + seed % 3,
        steps=1 + (seed // 3) % 4,
        max_branching=2 + (seed // 12) % 3,
        max_denominator=16,
        mode=MODES[seed % 2],
    )


@pytest.fixture(scope="module")
def sweep():
    start = time.monotonic()
    records = []
    for seed in range(SWEEP_SIZE):
        tree = random_tree(_sweep_params(seed), seed)
        records.append((seed, tree, equivalence_report(tree, seed=seed)))
    return records, time.monotonic() - start


def _emit(number, ok, detail):
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_criterion_1_three_route_agreement(sweep):
    records, elapsed = sweep
    inconsistent = [seed for seed, _, rep in records if not rep.consistent]
    na = sum(1 for _, _, rep in records if rep.verdict_emm)
    ok = (len(records) >= SWEEP_SIZE and not inconsistent
          and elapsed <= SWEEP_BUDGET_SECONDS)
    _emit(1, ok, f"{len(records)} trees, {na} no-arbitrage, "
                 f"disagreements={inconsistent[:5]}, {elapsed:.1f}s")
    assert len(records) >= SWEEP_SIZE
    assert inconsistent == []
    assert elapsed <= SWEEP_BUDGET_SECONDS


def _sweep_digest(records, arbitrage_witness):
    digest = hashlib.sha256()
    for _, _, rep in records:
        line = report_to_json(rep)
        if not arbitrage_witness:
            witnesses = line["witnesses"]
            witnesses["arbitrage"] = witnesses["arbitrage"] is not None
        digest.update(json.dumps(line, sort_keys=True).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def test_sweep_reports_are_pinned(sweep):
    records, _ = sweep
    assert _sweep_digest(records, arbitrage_witness=True) == SWEEP_REPORTS_SHA256


def test_sweep_verdicts_are_pinned(sweep):
    records, _ = sweep
    assert _sweep_digest(records, arbitrage_witness=False) == SWEEP_VERDICTS_SHA256


def test_sweep_node_programs_match_the_rational_reference(sweep):
    """Every sweep node's mean, certificates and density, equal to the
    ones read off the programs built in rational arithmetic; so is each
    program, field by field, except at a one-atom node, which builds
    none."""
    records, _ = sweep
    for seed, tree, _ in records:
        for nid in tree.non_leaves():
            cs = conditional_support(tree, nid)
            solved = {}
            assert shipped_node(cs, solved) == expected_node(cs, solved), (seed, nid)


def test_sweep_supports_match_the_constructor(sweep):
    """Every sweep node's support, built from the tree's integer form,
    equals the one the constructor builds from the atoms grouped in
    rational arithmetic, its basis included."""
    records, _ = sweep
    for _, tree, _ in records:
        for nid in tree.non_leaves():
            assert_support_matches_constructor(tree, nid)


def test_sweep_supports_answer_in_span_in_both_forms(sweep):
    """On every sweep support, ``in_span`` against the integer basis
    answers as the rational reference does against the atom values."""
    records, _ = sweep
    for _, tree, _ in records:
        for nid in tree.non_leaves():
            assert_in_span_matches_reference(conditional_support(tree, nid))


def test_sweep_programs_hold_their_integer_bounds(sweep):
    """Every program the sweep's routes hand to ``solve_lp`` holds
    ``int_row`` of its bounds, 0 where free, as ``int_lower``."""
    records, _ = sweep
    programs = []

    def record(lp):
        programs.append(lp)
        return solve_lp(lp)

    with pytest.MonkeyPatch.context() as patch:
        for module in (arbcheck.verify, arbcheck.geometry, arbcheck.emm):
            patch.setattr(module, "solve_lp", record)
        for _, tree, _ in records:
            equivalence_report(tree)
    assert {type(lo) for lp in programs for lo in lp.lower} > {type(None)}
    for lp in programs:
        assert lp.int_lower == int_row([ZERO if lo is None else lo for lo in lp.lower])


def test_sweep_tree_loops_match_the_rational_reference(sweep):
    """Every sweep tree's strategy program, supports, gains and
    martingale residuals, equal to the ones built in rational
    arithmetic."""
    records, _ = sweep
    for seed, tree, rep in records:
        density = rep.construction.density if rep.construction else None
        try:
            assert_tree_loops_match(tree, seed, rep.arbitrage, density)
        except AssertionError as exc:
            raise AssertionError(f"seed {seed}: {exc}") from exc


def test_sweep_reduced_programs_match_the_full_ones(sweep):
    """On every sweep tree, the strategy program with all d columns per
    node gives the shipped optimum, point and witness, and at every node
    the density program floored at f gives f times the floor-1 vertex,
    the shipped density."""
    records, _ = sweep
    for seed, tree, _ in records:
        try:
            assert_full_strategy_program_matches(tree)
            for nid in tree.non_leaves():
                assert_floor_f_density_matches(conditional_support(tree, nid))
        except AssertionError as exc:
            raise AssertionError(f"seed {seed}: {exc}") from exc


def test_criterion_2_martingale_construction_exactness(sweep):
    records, _ = sweep
    failures = []
    checked = 0
    for seed, tree, rep in records:
        if not rep.verdict_emm:
            continue
        checked += 1
        c = rep.construction
        try:
            check_density(tree, c.density)  # strictly positive, unit mass
        except Exception:
            failures.append(seed)
            continue
        ok_mart, residuals = verify_martingale(tree, c.density)
        zero = (ZERO,) * tree.d
        if not ok_mart or any(r != zero for r in residuals.values()):
            failures.append(seed)
        elif max(c.density.as_dict().values()) > c.bound:
            failures.append(seed)
    ok = checked > 0 and not failures
    _emit(2, ok, f"{checked} constructions, failures={failures[:5]}")
    assert checked > 0
    assert failures == []


def _outcome(beta, tree):
    """The value, or the failing node and certificate of a GeometryError."""
    try:
        return beta(tree)
    except GeometryError as exc:
        return exc.node, exc.certificate


def test_criterion_3_scaled_gain_bound(sweep):
    records, _ = sweep
    over = []
    mismatched = []
    checked = 0
    for seed, tree, rep in records:
        # the closed form and the one-LP oracle give the same value on
        # an arbitrage-free tree and the same GeometryError on any other
        closed = _outcome(scaled_gain_optimum, tree)
        if (closed != _outcome(scaled_gain_lp, tree)
                or rep.verdict_emm == isinstance(closed, tuple)):
            mismatched.append(seed)
        elif rep.verdict_emm:
            checked += 1
            if not ZERO <= closed <= ONE:
                over.append(seed)
    worked = scaled_gain_optimum(skewed_coin())
    ok = checked > 0 and not over and not mismatched and worked == Q(2, 3)
    _emit(3, ok, f"{checked} instances within [0,1], violations={over[:5]}, "
                 f"oracle mismatches={mismatched[:5]}, "
                 f"worked instance beta={worked}")
    assert checked > 0
    assert over == []
    assert mismatched == []
    assert worked == Q(2, 3)


def test_sweep_build_emm_and_beta_fail_at_the_same_node(sweep):
    """On every tree with an arbitrage, ``build_emm`` and
    ``scaled_gain_optimum`` raise GeometryError at the same node with
    the same certificate: both take it from ``one_step_scale``."""
    records, _ = sweep
    checked = 0
    for seed, tree, rep in records:
        if rep.verdict_na_strategy:
            continue
        failed = _outcome(build_emm, tree)
        assert isinstance(failed, tuple), seed
        assert failed == _outcome(scaled_gain_optimum, tree), seed
        checked += 1
    assert checked > 0


def test_criterion_4_worked_one_step_instance():
    from arbcheck.emm import support_function
    from arbcheck.tree import conditional_mean

    cs = conditional_support(skewed_coin(), 0)
    s = support_function(cs, conditional_mean(cs))
    step = one_step_density(cs)
    c = build_emm(skewed_coin())
    rw = reweight(skewed_coin(), c.density)
    probs = tuple(rw.node(i).prob for i in (1, 2))

    fair = binomial(2)
    fair_c = build_emm(fair)
    fair_scales = {one_step_scale(conditional_support(fair, nid))
                   for nid in fair.non_leaves()}
    fair_z = set(fair_c.density.as_dict().values())

    ok = (s == Q(2) and step.scale == Q(1, 3)
          and step.normalized == (Q(2, 3), Q(2))
          and probs == (Q(1, 2), Q(1, 2))
          and fair_scales == {ONE} and fair_z == {ONE})
    fmt = lambda qs: "(" + ", ".join(str(q) for q in qs) + ")"
    _emit(4, ok, f"s={s}, f={step.scale}, g_hat={fmt(step.normalized)}, "
                 f"reweighted={fmt(probs)}, symmetric scales={fmt(fair_scales)}")
    assert s == Q(2)
    assert step.scale == Q(1, 3)
    assert step.normalized == (Q(2, 3), Q(2))
    assert probs == (Q(1, 2), Q(1, 2))
    assert fair_scales == {ONE}
    assert fair_z == {ONE}


def test_criterion_5_witness_soundness(sweep):
    records, _ = sweep
    strategies = densities = 0
    unsound = []
    for seed, tree, rep in records:
        if rep.arbitrage is not None:
            strategies += 1
            g = gains(tree, rep.arbitrage)
            norm = max(abs(c) for vec in rep.arbitrage.values() for c in vec)
            if not (all(v >= 0 for v in g.values())
                    and any(v > 0 for v in g.values()) and norm == ONE):
                unsound.append(("strategy", seed))
        if rep.construction is not None:
            densities += 1
            ok_mart, _ = verify_martingale(tree, rep.construction.density)
            if not ok_mart:
                unsound.append(("density", seed))
    ok = strategies > 0 and densities > 0 and not unsound
    _emit(5, ok, f"{strategies} strategies and {densities} densities re-verified, "
                 f"unsound={unsound[:5]}")
    assert strategies > 0 and densities > 0
    assert unsound == []


def test_criterion_6_support_invariance_under_reweight(sweep):
    records, _ = sweep
    rng = random.Random(606060)
    pairs = 0
    broken = []
    for seed, tree, _ in records[:200]:
        leaves = list(tree.leaves())
        raw = {l: Q(rng.randint(1, 12), rng.randint(1, 12)) for l in leaves}
        p = leaf_probabilities(tree)
        mass = sum((p[l] * raw[l] for l in leaves), ZERO)
        density = LeafDensity.from_mapping({l: raw[l] / mass for l in leaves})
        rw = reweight(tree, density)
        pairs += 1
        for nid in tree.non_leaves():
            before = set(atom_values(conditional_support(tree, nid)))
            after = set(atom_values(conditional_support(rw, nid)))
            if before != after:
                broken.append((seed, nid))
    ok = pairs >= 200 and not broken
    _emit(6, ok, f"{pairs} reweighted trees, support changes={broken[:5]}")
    assert pairs >= 200
    assert broken == []


def test_criterion_7_origin_membership_dichotomy():
    rng = random.Random(77077)
    interior = separated = 0
    failures = []
    for case in range(10_000):
        d = rng.randint(1, 3)
        k = rng.randint(1, 6)
        points = [tuple(Q(rng.randint(-6, 6), rng.randint(1, 4))
                        for _ in range(d)) for _ in range(k)]
        cs = support(points)
        verdict = ri_conv_contains_origin(cs)
        direction = arbitrage_direction(cs)
        value, _ = separation_optimum(cs)
        if not check_ri_certificate(cs, verdict):
            failures.append(case)
        elif isinstance(verdict, InRi):
            interior += 1
            if direction is not None or value != ZERO:
                failures.append(case)
        else:
            separated += 1
            if direction is None or value <= ZERO:
                failures.append(case)
            elif not check_ri_certificate(cs, NotInRi(direction=direction)):
                failures.append(case)
    ok = interior + separated == 10_000 and interior > 0 and separated > 0 \
        and not failures
    _emit(7, ok, f"{interior} interior, {separated} separated, "
                 f"failures={failures[:5]}")
    assert interior + separated == 10_000
    assert interior > 0 and separated > 0
    assert failures == []


def test_criterion_8_lp_oracle_agreement():
    rng = random.Random(88088)
    statuses = set()
    disagreements = []
    for case in range(500):
        lp = random_lp(rng)
        agrees, _, (status, _) = oracle_check(lp)
        statuses.add(status)
        if not agrees:
            disagreements.append(case)
    ok = not disagreements and statuses == {"optimal", "infeasible", "unbounded"}
    _emit(8, ok, f"500 LPs, statuses seen={sorted(statuses)}, "
                 f"disagreements={disagreements[:5]}")
    assert disagreements == []
    assert statuses == {"optimal", "infeasible", "unbounded"}
