"""Tests of the benchmark's own logic: span self time, percentiles, the
independent witness checker, the coverage self-check and record
comparison. Run with ``python3 -m pytest bench/test_bench.py``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import checker  # noqa: E402
import compare  # noqa: E402
import run  # noqa: E402
from spans import Tracer  # noqa: E402

import arbcheck.verify  # noqa: E402
from arbcheck import report_to_json, tree_from_json, equivalence_report  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_nested_spans():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def leaf():
        clock.now += 5

    traced_leaf = tracer.wrap("x.leaf", leaf)

    def middle():
        clock.now += 2
        traced_leaf()
        traced_leaf()

    traced_middle = tracer.wrap("x.middle", middle)

    def top():
        clock.now += 1
        traced_middle()
        clock.now += 3

    tracer.wrap("x.top", top)()
    assert tracer.get("x.leaf").calls == 2
    assert tracer.get("x.leaf").self_s == 10
    assert tracer.get("x.middle").self_s == 2
    assert tracer.get("x.middle").total_s == 12
    assert tracer.get("x.top").self_s == 4
    assert tracer.get("x.top").total_s == 16


def test_solve_lp_spans_take_the_innermost_formulation():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    lp = SimpleNamespace(n_rows=7, n_vars=3)
    solve = tracer.wrap("lp.solve_lp", lambda lp: SimpleNamespace(point=(Fraction(5, 1024), Fraction(1))))
    separation = tracer.wrap("geometry.separation_optimum", lambda: solve(lp))

    def ri():
        solve(lp)
        separation()

    tracer.wrap("geometry.ri_conv_contains_origin", ri)()
    assert tracer.get("lp.ri").calls == 1
    assert tracer.get("lp.separation").calls == 1
    assert tracer.get("lp.separation").rows_max == 7
    assert tracer.get("lp.separation").vars_max == 3
    assert tracer.get("lp.separation").bits_max == 11  # 1024 = 2**10


def test_tracer_patches_every_binding_and_restores_them():
    original = arbcheck.lp.solve_lp
    tree = tree_from_json(_ONE_STEP_ARBITRAGE)
    with Tracer() as tracer:
        assert arbcheck.verify.solve_lp is not original
        assert arbcheck.geometry.solve_lp is not original
        assert arbcheck.solve_lp is not original
        arbcheck.verify.equivalence_report(tree)
    assert arbcheck.verify.solve_lp is original
    assert arbcheck.solve_lp is original
    assert tracer.get("lp.strategy").calls == 1
    assert tracer.get("geometry.separation_optimum").calls >= 1
    assert tracer.get("verify.equivalence_report").calls == 1


def test_coverage_gaps_name_layers_without_calls():
    assert "lp.strategy" in run.coverage_gaps("ladder", Tracer())
    assert "geometry.separation_optimum" in run.coverage_gaps("wide", Tracer())


def test_percentile_and_sample_count():
    values = list(range(1, 101))
    assert run.percentile(values, 50) == (50.5, 100, 50)
    value, n, beyond = run.percentile(values, 90)
    assert value == pytest.approx(90.1)
    assert (n, beyond) == (100, 10)
    assert run.percentile([4.0], 90) == (4.0, 1, 0)


# d=1, both children move up: arbitrage at the root
_ONE_STEP_ARBITRAGE = json.dumps({"d": 1, "N": 1, "nodes": [
    {"id": 0, "parent": None, "prob": "1", "price": ["0"]},
    {"id": 1, "parent": 0, "prob": "1/2", "price": ["1"]},
    {"id": 2, "parent": 0, "prob": "1/2", "price": ["2"]},
]})
# d=1, up and down: no arbitrage
_ONE_STEP_FAIR = json.dumps({"d": 1, "N": 1, "nodes": [
    {"id": 0, "parent": None, "prob": "1", "price": ["0"]},
    {"id": 1, "parent": 0, "prob": "1/3", "price": ["2"]},
    {"id": 2, "parent": 0, "prob": "2/3", "price": ["-1"]},
]})


def _report(text):
    return report_to_json(equivalence_report(tree_from_json(text)))


def test_checker_accepts_real_reports():
    for text in (_ONE_STEP_ARBITRAGE, _ONE_STEP_FAIR):
        assert checker.check_report(json.loads(text), _report(text), False) == []
    assert checker.check_report(json.loads(_ONE_STEP_FAIR), _report(_ONE_STEP_FAIR), True) == []


def test_checker_rejects_negated_strategy_entry():
    report = _report(_ONE_STEP_ARBITRAGE)
    entry = report["witnesses"]["arbitrage"]["0"]
    entry[0] = str(-Fraction(entry[0]))
    assert checker.check_report(json.loads(_ONE_STEP_ARBITRAGE), report, False)


def test_checker_rejects_perturbed_density_value():
    report = _report(_ONE_STEP_FAIR)
    density = report["witnesses"]["density"]
    density["1"] = str(Fraction(density["1"]) + Fraction(1, 7))
    assert checker.check_report(json.loads(_ONE_STEP_FAIR), report, False)


def test_checker_rejects_direction_off_max_norm_one():
    report = _report(_ONE_STEP_ARBITRAGE)
    cert = report["certificates"][0]
    assert cert["verdict"] == "not_in_ri"
    cert["direction"] = [str(2 * Fraction(c)) for c in cert["direction"]]
    assert checker.check_report(json.loads(_ONE_STEP_ARBITRAGE), report, False)


def test_checker_rejects_arbitrage_verdict_on_a_martingale_tree():
    report = _report(_ONE_STEP_ARBITRAGE)
    problems = checker.check_report(json.loads(_ONE_STEP_ARBITRAGE), report, True)
    assert any("martingale measure by construction" in p for p in problems)


def test_exit_code_must_match_the_verdict():
    out = (json.dumps(_report(_ONE_STEP_FAIR), sort_keys=True) + "\n").encode()
    assert run.verdict_problems("generic", _ONE_STEP_FAIR, 0, out) == []
    assert run.verdict_problems("generic", _ONE_STEP_FAIR, 1, out)


def test_compare_refuses_records_from_different_backends():
    base = {"stamp": {"backend": "gmpy2", "workload": "wide"},
            "result": {"metrics": {"trees_per_s": {"value": 100.0, "unit": "1/s"}}}}
    new = json.loads(json.dumps(base))
    new["stamp"]["backend"] = "fractions"
    with pytest.raises(compare.NotComparable, match="backend"):
        compare.compare(base, new)
    new["stamp"]["backend"] = "gmpy2"
    new["result"]["metrics"]["trees_per_s"]["value"] = 50.0
    assert compare.compare(base, new) == [("trees_per_s", 100.0, 50.0, 0.5)]


def test_run_fails_without_the_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "wide", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
