import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from arbcheck import Q, build_emm, equivalence_report, tree_from_json, tree_to_json
from arbcheck.cli import main
from arbcheck.verify import MODES, TreeParams, construction_to_json, random_tree, report_to_json
from helpers import skewed_coin, sure_win

# exit code contract: 0 holds / artifact produced, 1 fails expectedly,
# 2 bad input, 3 internal inconsistency


@pytest.fixture
def run(capsys):
    def _run(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err
    return _run


@pytest.fixture
def na_file(tmp_path):
    path = tmp_path / "na.json"
    path.write_text(json.dumps(tree_to_json(skewed_coin())))
    return str(path)


@pytest.fixture
def arb_file(tmp_path):
    path = tmp_path / "arb.json"
    path.write_text(json.dumps(tree_to_json(sure_win())))
    return str(path)


@pytest.fixture
def invalid_file(tmp_path):
    data = tree_to_json(skewed_coin())
    data["nodes"][1]["prob"] = "1/3"  # children now sum to 7/12
    path = tmp_path / "invalid.json"
    path.write_text(json.dumps(data))
    return str(path)


class TestValidate:
    def test_valid(self, run, na_file):
        assert run("validate", na_file) == (0, "valid\n", "")

    def test_violations_exit_one(self, run, invalid_file):
        code, out, _ = run("validate", invalid_file)
        assert code == 1
        assert "prob_sum" in out

    def test_parse_error_exit_two(self, run, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{not json")
        code, _, err = run("validate", str(path))
        assert code == 2 and "error:" in err

    def test_missing_file(self, run):
        code, _, err = run("validate", "/nonexistent/tree.json")
        assert code == 2 and "error:" in err


SRC = str(Path(__file__).resolve().parents[1] / "src")


def _cli(*argv, prelude=""):
    """Run the CLI in a fresh interpreter; returns (exit code, stdout, stderr)."""
    env = dict(os.environ, PYTHONPATH=SRC)
    code = prelude + "import sys; from arbcheck.cli import main; sys.exit(main(sys.argv[1:]))"
    proc = subprocess.run([sys.executable, "-c", code, *argv],
                          capture_output=True, env=env, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr.decode()


class TestHostileInput:
    def test_non_utf8_file_exit_two(self, tmp_path):
        path = tmp_path / "bytes.json"
        path.write_bytes(b"\xff\xfe{")
        code, _, err = _cli("check", str(path))
        assert code == 2 and "error:" in err
        assert "Traceback" not in err

    def test_deep_nesting_exit_two(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 10**5)
        code, _, err = _cli("check", str(path))
        assert code == 2 and "error:" in err
        assert "Traceback" not in err

    def test_overlong_price_exit_two(self, tmp_path):
        data = tree_to_json(skewed_coin())
        data["nodes"][1]["price"] = ["1" * 5001]
        path = tmp_path / "long.json"
        path.write_text(json.dumps(data))
        code, _, err = _cli("check", str(path))
        assert code == 2 and "error:" in err and "digit limit" in err
        assert "Traceback" not in err


FILE_COMMANDS = ("validate", "check", "find-arbitrage", "build-emm", "beta")

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
    | st.sampled_from(["0", "1", "-1", "1/2", "3/4", "1/0", "2/4"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=5,
)


@st.composite
def mutated_trees(draw):
    """A valid small tree (d <= 2, N <= 2) with up to three fields
    replaced or dropped, serialized; sometimes with one byte overwritten."""
    params = TreeParams(assets=draw(st.integers(1, 2)), steps=draw(st.integers(1, 2)),
                        max_branching=draw(st.integers(1, 3)), mode=draw(st.sampled_from(MODES)))
    data = tree_to_json(random_tree(params, draw(st.integers(0, 2**16))))
    nodes = list(data["nodes"])
    for _ in range(draw(st.integers(0, 3))):
        node = draw(st.sampled_from(nodes))
        targets = [data, node] + [v for v in node.values() if isinstance(v, list) and v]
        target = draw(st.sampled_from(targets))
        if isinstance(target, dict):
            key = draw(st.sampled_from(sorted(target) + ["extra"]))
            if draw(st.booleans()):
                target.pop(key, None)
                continue
        else:
            key = draw(st.integers(0, len(target) - 1))
        target[key] = draw(json_values)
    raw = bytearray(json.dumps(data).encode())
    if draw(st.booleans()):
        raw[draw(st.integers(0, len(raw) - 1))] = draw(st.integers(0, 255))
    return bytes(raw)


@settings(max_examples=200, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(command=st.sampled_from(FILE_COMMANDS), as_json=st.booleans(),
       payload=st.binary(max_size=64) | mutated_trees())
def test_main_is_total_on_fuzzed_input(command, as_json, payload):
    """Every byte string gets an exit code of the contract, never an
    escaped exception or the alarm."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "tree.json")
        with open(path, "wb") as fh:
            fh.write(payload)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([command, path] + (["--json"] if as_json else []))
    assert code in (0, 1, 2), err.getvalue()
    assert "Traceback" not in err.getvalue()


def test_fraction_backend_matches_in_process(run, tmp_path):
    """Forcing the fractions.Fraction fallback leaves check --json
    byte-identical to this process's backend."""
    tree = random_tree(TreeParams(assets=2, steps=2, max_branching=3), 4)
    path = tmp_path / "tree.json"
    path.write_text(json.dumps(tree_to_json(tree)))
    _, expected, _ = run("check", str(path), "--json")
    code, out, err = _cli("check", str(path), "--json",
                          prelude="import sys; sys.modules['gmpy2'] = None; ")
    assert code in (0, 1), err
    assert out == expected.encode()


class TestCheck:
    def test_no_arbitrage_exit_zero(self, run, na_file):
        code, out, _ = run("check", na_file)
        assert code == 0
        assert "strategy-LP=yes geometry=yes martingale-construction=yes" in out
        assert "consistent: yes" in out

    def test_arbitrage_exit_one(self, run, arb_file):
        code, out, _ = run("check", arb_file)
        assert code == 1
        assert "strategy-LP=no geometry=no martingale-construction=no" in out

    def test_json_matches_library(self, run, na_file):
        code, out, _ = run("check", na_file, "--json")
        assert code == 0
        assert json.loads(out) == report_to_json(equivalence_report(skewed_coin()))

    def test_json_byte_identical(self, run, na_file):
        first = run("check", na_file, "--json")
        second = run("check", na_file, "--json")
        assert first == second

    def test_invalid_tree_exit_two(self, run, invalid_file):
        code, _, err = run("check", invalid_file)
        assert code == 2 and "prob_sum" in err


class TestFindArbitrage:
    def test_found(self, run, arb_file):
        code, out, _ = run("find-arbitrage", arb_file, "--json")
        assert code == 0
        assert json.loads(out) == {"arbitrage": {"0": ["1"]}}

    def test_absent(self, run, na_file):
        code, out, _ = run("find-arbitrage", na_file, "--json")
        assert code == 1
        assert json.loads(out) == {"arbitrage": None}
        assert run("find-arbitrage", na_file)[1] == "no arbitrage\n"


class TestBuildEmm:
    def test_produces_construction(self, run, na_file):
        code, out, _ = run("build-emm", na_file, "--json")
        assert code == 0
        assert json.loads(out) == construction_to_json(build_emm(skewed_coin()))

    def test_blocked_with_certificate(self, run, arb_file):
        code, out, _ = run("build-emm", arb_file, "--json")
        assert code == 1
        assert json.loads(out) == \
            {"node": 0, "verdict": "not_in_ri", "direction": ["1"]}


class TestBeta:
    def test_value(self, run, na_file):
        assert run("beta", na_file) == (0, "beta = 2/3\n", "")
        code, out, _ = run("beta", na_file, "--json")
        assert code == 0 and json.loads(out) == {"beta": "2/3"}

    def test_arbitrage_exit_one(self, run, arb_file):
        code, out, _ = run("beta", arb_file, "--json")
        assert code == 1
        assert json.loads(out)["verdict"] == "not_in_ri"


class TestGen:
    def test_golden_seed(self, run):
        code, out, err = run("gen", "--seed", "0")
        assert code == 0
        assert err == "seed = 0\n"
        assert tree_from_json(json.loads(out)) == random_tree(TreeParams(), 0)

    def test_quiet_suppresses_echo(self, run):
        _, _, err = run("gen", "--seed", "0", "--quiet")
        assert err == ""

    def test_deterministic_output(self, run):
        args = ("gen", "--seed", "3", "--assets", "2", "--steps", "2",
                "--branching", "3", "--mode", "martingale_perturbed", "--json")
        assert run(*args) == run(*args)

    def test_out_file_round_trips(self, run, tmp_path):
        path = tmp_path / "tree.json"
        code, out, _ = run("gen", "--seed", "11", "--steps", "2", "--out", str(path))
        assert code == 0 and str(path) in out
        data = json.loads(path.read_text())
        assert run("validate", str(path))[0] == 0
        assert tree_from_json(data) == random_tree(TreeParams(steps=2), 11)

    def test_generated_trees_check_clean(self, run, tmp_path):
        path = tmp_path / "gen.json"
        for seed in ("2", "5"):
            assert run("gen", "--seed", seed, "--mode", "martingale_perturbed",
                       "--steps", "2", "--out", str(path), "--quiet")[0] == 0
            assert run("check", str(path))[0] == 0

    def test_bad_params_exit_two(self, run):
        assert run("gen", "--seed", "1", "--max-denominator", "99")[0] == 2
        assert run("gen", "--seed", "1", "--range", "5", "-5")[0] == 2

    def test_unknown_command_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2
