"""arbcheck benchmark: the ``ladder``, ``wide`` and ``cli`` workloads.

Run from the repository root:

    python3 bench/run.py --workload ladder --seed 1 --seconds 30 --trace 0

Every workload's corpus is made by ``arbcheck.verify.random_tree`` from
the workload seed; the program only ever sees the generated tree JSON.
The load is a closed loop with one client: one tree at a time in-process
(``ladder``, ``wide``) or one ``python -m arbcheck.cli check FILE --json``
subprocess at a time (``cli``). Every verdict and witness is re-checked
by ``checker.py``.

``--trace 0`` measures the end-to-end metrics for ``--seconds``, with
request times scaled to a reference host speed (see HostProbe).
``--trace 1`` runs a fixed prefix of the corpus through the in-process
``arbcheck.cli.main``, untraced and under ``spans.Tracer``, and reports
the per-layer metrics; their counts repeat exactly for a given seed.
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checker
from spans import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DEFAULT_SEED = 1
FRESH_RUNS = 5  # fresh-process import and interpreter timings, median taken
SETUPS = 5  # import + corpus builds per run for setup_s, median taken
CALL_TIMEOUT_S = 60


@dataclass(frozen=True)
class Workload:
    assets: int
    steps: int
    max_branching: int
    corpus: int  # distinct trees; the timed loop cycles through them
    traced: int  # prefix of the corpus run by --trace 1
    nodes: tuple = (1, 10**6)  # accepted node-count band
    subprocess: bool = False


# Why each workload (see README.md): ladder makes the strategy LP
# dominate, wide runs many small node LPs of every outcome, cli pays
# interpreter start, import and parsing per call.
WORKLOADS = {
    "ladder": Workload(assets=3, steps=4, max_branching=4, corpus=300, traced=48, nodes=(30, 34)),
    "wide": Workload(assets=4, steps=1, max_branching=5, corpus=1500, traced=300),
    "cli": Workload(assets=2, steps=2, max_branching=3, corpus=250, traced=100, subprocess=True),
}
MODES = ("generic", "martingale_perturbed")

# span keys that must record calls, on every workload and per workload
REQUIRED = (
    "cli.main", "tree.tree_from_json", "tree.validate", "tree.conditional_support",
    "verify.equivalence_report", "verify.find_arbitrage", "verify.report_to_json",
    "lp.make_lp", "lp.strategy", "lp.ri", "lp.support", "lp.density",
    "geometry.ri_conv_contains_origin", "geometry.check_ri_certificate",
    "emm.build_emm", "emm.support_function", "emm.one_step_density", "emm.verify_martingale",
    "linalg.span_basis", "linalg.in_span",
)
REQUIRED_BY_WORKLOAD = {
    "ladder": (),
    "wide": ("geometry.separation_optimum", "lp.separation"),
    "cli": ("geometry.separation_optimum",),
}
FORMULATION_TAGS = ("strategy", "ri", "separation", "support", "density")


def env_with_src() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def percentile(values, q: int):
    """The q-th percentile (inclusive interpolation), the sample count and
    how many samples lie strictly above it."""
    n = len(values)
    value = values[0] if n == 1 else statistics.quantiles(values, n=100, method="inclusive")[q - 1]
    return value, n, sum(1 for v in values if v > value)


def fresh_process_seconds(code: str, wall: bool, repeat: int = FRESH_RUNS) -> float:
    """Median over ``repeat`` fresh interpreters of either the wall time
    of running ``code`` or the float that ``code`` prints."""
    samples = []
    for _ in range(repeat):
        start = time.perf_counter()
        out = subprocess.run(
            [sys.executable, "-c", code], env=env_with_src(), capture_output=True,
            text=True, timeout=CALL_TIMEOUT_S, check=True,
        ).stdout
        samples.append(time.perf_counter() - start if wall else float(out))
    return statistics.median(samples)


IMPORT_PROBE = "import time; t = time.perf_counter(); import arbcheck.cli; print(time.perf_counter() - t)"


def shape_size(tree_seed: int, w: Workload) -> int:
    """Node count ``random_tree`` will draw for ``tree_seed``: its stream
    starts with one branching draw per node, breadth-first. This only
    skips seeds cheaply; the generated tree's size is checked again."""
    rng = random.Random(tree_seed)
    count = frontier = 1
    for _ in range(w.steps):
        frontier = sum(rng.randint(1, w.max_branching) for _ in range(frontier))
        count += frontier
    return count


def build_corpus(name: str, seed: int, workdir: Path):
    """Trees for the workload seed: (mode, tree JSON text, file path);
    ``write_inputs`` writes the files. Modes alternate; trees outside the
    node-count band are redrawn."""
    from arbcheck.tree import tree_to_json
    from arbcheck.verify import TreeParams, random_tree

    w = WORKLOADS[name]
    rng = random.Random(f"{name}:{seed}")
    corpus = []
    for i in range(w.corpus):
        mode = MODES[i % 2]
        params = TreeParams(assets=w.assets, steps=w.steps, max_branching=w.max_branching, mode=mode)
        while True:
            tree_seed = rng.randrange(2**31)
            if not w.nodes[0] <= shape_size(tree_seed, w) <= w.nodes[1]:
                continue
            tree = random_tree(params, tree_seed)
            if w.nodes[0] <= len(tree.nodes) <= w.nodes[1]:
                break
        corpus.append((mode, json.dumps(tree_to_json(tree), sort_keys=True), workdir / f"{i}.json"))
    return corpus


def write_inputs(corpus) -> None:
    for _, text, path in corpus:
        path.write_text(text, encoding="utf-8")


def report_bytes(text: str) -> bytes:
    """JSON text to serialized report, the same bytes as ``check --json``."""
    from arbcheck import tree as tree_mod, verify

    tree = tree_mod.tree_from_json(text)
    violations = tree_mod.validate(tree)
    if violations:
        raise ValueError(f"generated tree failed validation: {violations[0]}")
    report = verify.equivalence_report(tree)
    return (json.dumps(verify.report_to_json(report), sort_keys=True) + "\n").encode()


def main_bytes(path: Path):
    """In-process ``arbcheck.cli.main(["check", FILE, "--json"])``."""
    import arbcheck.cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = arbcheck.cli.main(["check", str(path), "--json"])
    return code, buf.getvalue().encode()


def cli_bytes(path: Path):
    proc = subprocess.run(
        [sys.executable, "-m", "arbcheck.cli", "check", str(path), "--json"],
        env=env_with_src(), capture_output=True, timeout=CALL_TIMEOUT_S,
    )
    return proc.returncode, proc.stdout


def verdict_problems(mode: str, text: str, code, out: bytes) -> list:
    """Independent check of one output; ``code`` is the exit code or None."""
    try:
        report = json.loads(out)
    except ValueError:
        return [f"output is not JSON (exit {code})"]
    problems = checker.check_report(json.loads(text), report, mode == "martingale_perturbed")
    if code is not None and code != (0 if report.get("verdict_na_strategy") else 1):
        problems.append(f"exit code {code} does not match the verdict")
    return problems


def attempt(fn, arg):
    """``fn(arg)``, or None if it raised: a crash is a failed request,
    not a crashed benchmark."""
    try:
        return fn(arg)
    except Exception as exc:
        print(f"request raised {exc!r}", file=sys.stderr)
        return None


class Outputs:
    """First output per corpus index; a later repeat must be byte-identical."""

    def __init__(self, corpus, prefix: int):
        self.corpus = corpus
        self.prefix = prefix
        self.first: dict[int, tuple] = {}
        self.failed: set[int] = set()

    def add(self, idx: int, result) -> None:
        code, out = result if isinstance(result, tuple) else (None, result)
        if out is None:
            self.failed.add(idx)
        elif idx not in self.first:
            self.first[idx] = (code, out)
        elif self.first[idx][1] != out:
            self.failed.add(idx)  # nondeterministic output

    def verify(self) -> list:
        problems = []
        for idx, (code, out) in sorted(self.first.items()):
            mode, text, _ = self.corpus[idx]
            found = verdict_problems(mode, text, code, out)
            if found:
                self.failed.add(idx)
                problems.append((idx, found))
        return problems

    def sha256(self):
        """Digest of the outputs of the corpus prefix, or None if incomplete."""
        if any(i not in self.first for i in range(self.prefix)):
            return None
        h = hashlib.sha256()
        for i in range(self.prefix):
            h.update(self.first[i][1])
        return h.hexdigest()


def fraction_probe() -> float:
    """Seconds for a fixed exact elimination on a 9x9 Fraction matrix."""
    from fractions import Fraction

    start = time.perf_counter()
    n = 9
    m = [[Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + 2 * j) % 5) for j in range(n)] for i in range(n)]
    for c in range(n):
        p = next((r for r in range(c, n) if m[r][c]), None)
        if p is None:
            continue
        m[c], m[p] = m[p], m[c]
        for r in range(n):
            if r != c and m[r][c]:
                f = m[r][c] / m[c][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return time.perf_counter() - start


def interpreter_probe() -> float:
    """Wall seconds of a bare ``python -c pass``."""
    return fresh_process_seconds("pass", wall=True, repeat=1)


@dataclass(frozen=True)
class HostProbe:
    """Host speed drifts by up to +-25% over minutes on a shared VM, so
    request times are scaled to a reference host speed: a fixed probe
    runs between requests, and each request's seconds are multiplied by
    the probe's reference time over its mean measured time nearby. The
    probe matches the kind of work, Fraction arithmetic for in-process
    requests and a bare interpreter start for subprocess requests, and
    runs no arbcheck code, so a change to arbcheck cannot move it."""

    run: object  # () -> seconds
    ref_s: float  # its time on an idle core of the reference host
    every_s: float  # seconds between probes in the timed loop
    window_s: float  # probes this close to a request scale it


IN_PROCESS_PROBE = HostProbe(fraction_probe, ref_s=0.002, every_s=0.2, window_s=1.0)
SUBPROCESS_PROBE = HostProbe(interpreter_probe, ref_s=0.05, every_s=0.3, window_s=3.0)


def host_probe_for(name: str) -> HostProbe:
    return SUBPROCESS_PROBE if WORKLOADS[name].subprocess else IN_PROCESS_PROBE


def timed_loop(name: str, corpus, seconds: float):
    """Closed loop, one request at a time, until ``seconds`` have passed.
    The workload's host probe runs every ``every_s`` between requests."""
    subproc = WORKLOADS[name].subprocess
    probe = host_probe_for(name)
    outputs = Outputs(corpus, WORKLOADS[name].traced)
    requests = []  # (start, seconds)
    probes = []  # (start, seconds)
    clock = time.perf_counter
    deadline = clock() + seconds
    next_probe = 0.0
    i = 0
    while True:
        if clock() >= next_probe:
            probes.append((clock(), probe.run()))
            next_probe = clock() + probe.every_s
        idx = i % len(corpus)
        mode, text, path = corpus[idx]
        t0 = clock()
        result = attempt(cli_bytes, path) if subproc else attempt(report_bytes, text)
        t1 = clock()
        requests.append((t0, t1 - t0))
        outputs.add(idx, result)
        i += 1
        if t1 >= deadline:
            break
    probes.append((clock(), probe.run()))
    errors = outputs.verify()
    failed = sum(1 for k in range(i) if k % len(corpus) in outputs.failed)
    return requests, probes, failed, errors, outputs


def at_reference_speed(requests, probes, probe: HostProbe) -> list:
    """Each request's seconds scaled by ``probe.ref_s`` over the mean probe
    time within ``probe.window_s`` of it, i.e. as if the host ran the
    probe in ``ref_s``."""
    out = []
    for t0, dt in requests:
        near = [p for t, p in probes if t0 - probe.window_s <= t <= t0 + dt + probe.window_s]
        out.append(dt * probe.ref_s / statistics.mean(near))
    return out


# untraced and traced passes in ABBA order, so that a linear drift in
# host speed cancels out of the tracing overhead
TRACE_ORDER = (False, True, True, False)


def traced_pass(name: str, corpus):
    """In-process ``main`` over the corpus prefix, once per TRACE_ORDER
    entry; one Tracer accumulates the traced passes. Returns the seconds
    untraced and traced, each pass's Outputs and the Tracer."""
    files = corpus[: WORKLOADS[name].traced]
    write_inputs(files)
    attempt(main_bytes, files[0][2])  # keep first-call imports out of the passes
    tracer = Tracer()
    seconds = {False: 0.0, True: 0.0}
    passes = []
    for traced in TRACE_ORDER:
        outputs = Outputs(files, len(files))
        with tracer if traced else contextlib.nullcontext():
            start = time.perf_counter()
            for idx, (_, _, path) in enumerate(files):
                outputs.add(idx, attempt(main_bytes, path))
            seconds[traced] += time.perf_counter() - start
        passes.append(outputs)
    return seconds, passes, tracer


def coverage_gaps(name: str, tracer) -> list:
    """Span keys that must run on the workload but recorded no call."""
    return [key for key in REQUIRED + REQUIRED_BY_WORKLOAD[name] if tracer.get(key).calls == 0]


def layer_metrics(tracer, trees: int, passes: int, nodes: int, overhead: float) -> dict:
    """Per-layer metrics from ``passes`` identical traced passes over
    ``trees`` trees: ``calls`` and outcome counts are totals for one pass,
    ``self_s`` is seconds per tree."""
    m = {}
    per_tree = trees * passes

    def put(key, value, unit):
        m[key] = {"value": value, "unit": unit}

    for tag in FORMULATION_TAGS:
        st = tracer.get(f"lp.{tag}")
        put(f"lp.{tag}.calls", st.calls // passes, "count")
        put(f"lp.{tag}.self_s", st.self_s / per_tree, "s")
        put(f"lp.{tag}.rows_max", st.rows_max, "count")
        put(f"lp.{tag}.vars_max", st.vars_max, "count")
        put(f"lp.{tag}.bits_max", st.bits_max, "bits")
        put(f"lp.{tag}.infeasible", st.outcomes["Infeasible"] // passes, "count")
        put(f"lp.{tag}.unbounded", st.outcomes["Unbounded"] // passes, "count")
    for key in ("lp.make_lp", "geometry.ri_conv_contains_origin", "geometry.separation_optimum",
                "geometry.check_ri_certificate", "emm.support_function", "emm.one_step_density",
                "emm.verify_martingale", "linalg.span_basis", "linalg.in_span"):
        put(f"{key}.calls", tracer.get(key).calls // passes, "count")
    for key in ("lp.make_lp", "geometry.ri_conv_contains_origin", "geometry.separation_optimum",
                "geometry.check_ri_certificate", "emm.build_emm", "emm.support_function",
                "emm.one_step_density", "emm.verify_martingale", "verify.find_arbitrage",
                "verify.equivalence_report", "verify.report_to_json", "linalg.span_basis",
                "linalg.in_span", "tree.tree_from_json", "tree.validate",
                "tree.conditional_support", "cli.main"):
        put(f"{key}.self_s", tracer.get(key).self_s / per_tree, "s")
    ri = tracer.get("geometry.ri_conv_contains_origin").calls
    put("geometry.second_lp_frac", tracer.get("geometry.separation_optimum").calls / ri if ri else 0.0, "ratio")
    emm = tracer.get("emm.build_emm")
    put("emm.geometry_error_frac", emm.raised["GeometryError"] / emm.calls if emm.calls else 0.0, "ratio")
    put("tree.nodes", nodes, "count")
    put("cli.interpreter_s", fresh_process_seconds("pass", wall=True), "s")
    put("cli.import_s", fresh_process_seconds(IMPORT_PROBE, wall=False), "s")
    put("trace.overhead_frac", overhead, "ratio")
    return m


def stamp(name: str, seed: int) -> dict:
    from arbcheck.rationals import HAVE_GMPY2

    return {
        "backend": "gmpy2" if HAVE_GMPY2 else "fractions",
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "workload": name,
        "seed": seed,
    }


def measure_setup(name: str, seed: int, workdir: Path, probe: HostProbe):
    """Build the corpus SETUPS times. Returns it with the median raw set-up
    seconds and the median of each set-up scaled by the probes around it."""
    raw, scaled = [], []
    before = [probe.run() for _ in range(3)]
    for _ in range(SETUPS):
        import_s = fresh_process_seconds(IMPORT_PROBE, wall=False, repeat=1)
        start = time.perf_counter()
        corpus = build_corpus(name, seed, workdir)
        seconds = import_s + time.perf_counter() - start
        after = [probe.run() for _ in range(3)]
        raw.append(seconds)
        scaled.append(seconds * probe.ref_s / statistics.mean(before + after))
        before = after
    return corpus, statistics.median(raw), statistics.median(scaled)


def run(name: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    probe = host_probe_for(name)
    corpus, raw_setup_s, setup_s = measure_setup(name, seed, workdir, probe)
    record = {"stamp": stamp(name, seed), "info": {"raw_setup_s": raw_setup_s}}

    if not trace:
        if WORKLOADS[name].subprocess:
            write_inputs(corpus)
        requests, probes, failed, errors, outputs = timed_loop(name, corpus, seconds)
        lat = at_reference_speed(requests, probes, probe)
        ms = [x * 1000 for x in lat]
        p50, n, _ = percentile(ms, 50)
        p90, _, beyond = percentile(ms, 90)
        usage = resource.RUSAGE_CHILDREN if WORKLOADS[name].subprocess else resource.RUSAGE_SELF
        metrics = {
            "trees_per_s": {"value": len(lat) / sum(lat), "unit": "1/s"},
            "verdict_ms_p50": {"value": p50, "unit": "ms"},
            "verdict_ms_p90": {"value": p90, "unit": "ms"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(usage).ru_maxrss / 1024, "unit": "MB"},
        }
        raw_ms = [dt * 1000 for _, dt in requests]
        record["info"].update(
            samples=n, p90_beyond=beyond, failed_frac=failed / n,
            report_sha256=outputs.sha256(), sha_prefix=WORKLOADS[name].traced,
            probes=len(probes), probe_ms_mean=statistics.mean(p for _, p in probes) * 1000,
            raw_trees_per_s=n / sum(dt for _, dt in requests),
            raw_verdict_ms_p50=percentile(raw_ms, 50)[0], raw_verdict_ms_p90=percentile(raw_ms, 90)[0],
        )
        attempted = len(lat)
    else:
        seconds, passes, tracer = traced_pass(name, corpus)
        errors = passes[1].verify()
        attempted = len(passes[1].corpus)
        failed = len(set().union(*(p.failed for p in passes)))
        if len({p.sha256() for p in passes}) != 1:
            errors.append((None, ["tracing changed the report bytes"]))
            failed = max(failed, 1)
        missing = coverage_gaps(name, tracer)
        if missing:
            raise SystemExit(f"tracer recorded no calls for {', '.join(missing)}: a wrapper no longer sees its layer")
        nodes = sum(len(json.loads(text)["nodes"]) for _, text, _ in passes[1].corpus)
        overhead = seconds[True] / seconds[False] - 1
        metrics = layer_metrics(tracer, attempted, TRACE_ORDER.count(True), nodes, overhead)
        record["info"].update(report_sha256=passes[1].sha256(), sha_prefix=attempted,
                              untraced_s=seconds[False], traced_s=seconds[True], failed_frac=failed / attempted)
    record["errors"] = [[idx, str(e)] for idx, e in errors][:20]
    record["result"] = {"correct": failed == 0 and not errors, "attempted": attempted,
                        "failed": failed, "metrics": metrics}
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, help="also write the stamped record (for compare.py)")
    args = ap.parse_args(argv)

    if not (SRC / "arbcheck" / "__init__.py").is_file():
        print(f"error: no arbcheck sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workdir = BENCH / "_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()  # only when no other run is using it

    print("stamp " + json.dumps(record["stamp"], sort_keys=True))
    print("info " + json.dumps(record["info"], sort_keys=True))
    for idx, err in record["errors"]:
        print(f"failure at corpus index {idx}: {err}")
    if args.out:
        args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps(record["result"], sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
