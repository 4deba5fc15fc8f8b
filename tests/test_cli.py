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

import arbcheck.emm
import arbcheck.tree
import arbcheck.verify
from arbcheck import Q, build_emm, equivalence_report, tree_from_json, tree_to_json
from arbcheck.cli import main
from arbcheck.errors import InputError
from arbcheck.lp import Optimal, solve_lp
from arbcheck.verify import MODES, TreeParams, construction_to_json, random_tree, report_to_json
from helpers import build, count_calls, one_step, skewed_coin, sure_win

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


def test_import_loads_no_dataclasses():
    """Start-up stays light: importing the CLI in a fresh interpreter
    loads neither dataclasses nor inspect, which dataclasses imports.
    Modules the interpreter loaded before the import do not count."""
    code = ("import sys; before = set(sys.modules); import arbcheck.cli; "
            "print(*sorted(set(sys.modules) - before))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=SRC), timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "arbcheck.cli" in loaded
    assert not loaded & {"dataclasses", "inspect"}


FILE_COMMANDS = ("validate", "check", "find-arbitrage", "build-emm", "beta")


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

    @staticmethod
    def _digit_limit_file(tmp_path, shape):
        """Each literal is under the int-str digit limit, but a derived
        rational is not: under "sum" the child probabilities add up to an
        8,000-digit denominator (validate's prob_sum detail), under
        "density" the two-period leaf density has 8,000-digit terms,
        under "mixed" only the leaves of the root's second child do, and
        under "witness" the arbitrage strategy at node 1 has terms of
        about 6,000 digits while the one at the root is (0, 0)."""
        big = 10**4000
        lo, hi = f"1/{big + 1}", f"{big}/{big + 1}"

        def walk(price, depth, probs):
            kids = [(q, walk(price + step, depth - 1, probs))
                    for q, step in zip(probs, (1, -1))] if depth else []
            return (price, kids)

        if shape == "sum":
            data = tree_to_json(one_step([1, -1], [f"1/{big + 1}", f"1/{big + 3}"]))
        elif shape == "density":
            data = tree_to_json(build(1, walk(0, 2, (lo, hi))))
        elif shape == "witness":
            b, a, c, d = 10**3000 + 1, 3, 10**3000 + 3, 10**3000 + 7
            up = (1 + Q(a, b), Q(-c, d))
            down = (1 - Q(c + 4, d + 6), Q(a + 8, b + 2))
            node1 = ((1, 0), [("1/2", (up, [])), ("1/2", (down, []))])
            stay = [(p, [("1", (p, []))]) for p in ((-1, 0), (0, 1), (0, -1))]
            data = tree_to_json(build(2, ((0, 0), [("1/4", sub) for sub in [node1] + stay])))
        else:
            fair, skewed = walk(1, 2, ("1/2", "1/2")), walk(-1, 2, (lo, hi))
            data = tree_to_json(build(1, (0, [("1/2", fair), ("1/2", skewed)])))
        path = tmp_path / "big.json"
        path.write_text(json.dumps(data))
        return str(path)

    @pytest.mark.parametrize("command", FILE_COMMANDS)
    @pytest.mark.parametrize("shape", ["sum", "density"])
    def test_derived_number_past_digit_limit(self, tmp_path, command, shape):
        code, _, err = _cli(command, self._digit_limit_file(tmp_path, shape))
        assert "Traceback" not in err
        if shape == "sum" or command in ("check", "build-emm"):
            assert code == 2 and "digit limit" in err
        if shape == "sum":
            assert "node 0 prob_sum" in err

    @pytest.mark.parametrize("command, shape", [("check", "density"),
                                                ("build-emm", "mixed"),
                                                ("find-arbitrage", "witness")])
    def test_text_past_digit_limit_prints_nothing(self, tmp_path, command, shape):
        """No line (check's verdicts, build-emm's first leaves,
        find-arbitrage's root strategy) is printed ahead of a value that
        cannot be formatted."""
        code, out, err = _cli(command, self._digit_limit_file(tmp_path, shape))
        assert code == 2 and out == b""
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", FILE_COMMANDS)
    @pytest.mark.parametrize("shape", ["sum", "density", "mixed", "witness"])
    def test_exit_code_independent_of_output_mode(self, run, tmp_path, command, shape):
        """Text, --json and --quiet format the same numbers, so they exit
        alike, and an input error leaves stdout empty in every mode."""
        path = self._digit_limit_file(tmp_path, shape)
        results = [run(command, path, *flag) for flag in ((), ("--json",), ("--quiet",))]
        assert len({code for code, _, _ in results}) == 1, results
        for code, out, err in results:
            assert code != 2 or (out == "" and "digit limit" in err)

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

    @pytest.mark.parametrize("fixture, exit_code", [("na_file", 0), ("arb_file", 1)])
    def test_validates_once(self, run, request, monkeypatch, fixture, exit_code):
        """The strategy and martingale routes and the martingale re-check
        all require a valid tree; the first pass is recorded on it."""
        calls = count_calls(monkeypatch, arbcheck.tree, "validate")
        code, _, _ = run("check", request.getfixturevalue(fixture), "--json")
        assert code == exit_code
        assert len(calls) == 1


    def test_constant_prices_exit_zero(self, run, tmp_path):
        """With every increment 0 no route has a trade to make: the
        strategy route solves no program and the report is consistent."""
        flat = ((2, -1), [])
        tree = build(2, ((2, -1), [("1/4", ((2, -1), [("1/2", flat), ("1/2", flat)])),
                                   ("3/4", ((2, -1), [("1", flat)]))]))
        path = tmp_path / "flat.json"
        path.write_text(json.dumps(tree_to_json(tree)))
        code, out, _ = run("check", str(path), "--json")
        report = json.loads(out)
        assert code == 0 and report["consistent"] and report["verdict_na_strategy"]
        assert report["witnesses"]["arbitrage"] is None


def _fail_martingale_check(tree, density):
    raise InputError("density has mass 2, not 1")


@pytest.mark.parametrize("module, name, stand_in, fixture, message", [
    (arbcheck.verify, "solve_lp", lambda lp: Optimal(solve_lp(lp).point, Q(1, 2)), "arb_file",
     "strategy route: arbitrage search must end at optimum 0 or 1\n"),
    (arbcheck.verify, "int_gains", lambda tree, h: ({1: -1, 2: 1}, 1), "arb_file",
     "strategy route: arbitrage witness failed the exact gains re-check\n"),
    (arbcheck.emm, "verify_martingale", _fail_martingale_check, "na_file",
     "martingale route: pasted density failed its re-check: density has mass 2, not 1\n"),
    (arbcheck.emm, "verify_martingale", lambda tree, z: (False, {0: (Q(1),)}), "na_file",
     "martingale route: constructed measure is not a martingale: {0: "),
], ids=["strategy-optimum", "strategy-witness", "martingale-density", "martingale-residual"])
def test_a_failed_route_re_check_is_an_alarm_naming_the_route(
        run, request, monkeypatch, module, name, stand_in, fixture, message):
    """A re-check that names no node fails with exit 3, and the alarm
    says which route and which re-check it was (the residuals' repr
    depends on the backend, so only their start is compared)."""
    monkeypatch.setattr(module, name, stand_in)
    code, out, err = run("check", request.getfixturevalue(fixture), "--json")
    assert code == 3 and out == ""
    assert err.startswith(f"ALARM (exact self-verification failed): {message}")


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
