"""One-off traced run over the first acceptance-sweep seeds.

    python3 bench/sweep.py [COUNT]

Runs ``equivalence_report`` on the trees of the acceptance sweep
(``tests/test_acceptance.py``: seed s uses the parameter mix below),
once untraced and once under ``spans.Tracer``, and prints the time per
route and per LP formulation. The routes are the strategy LP
(``find_arbitrage``), the martingale construction (``build_emm``) and
the per-node geometry loop, which is what remains of
``equivalence_report`` after those two and ``validate``. For reporting
only; nothing here is gated.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from arbcheck import verify  # noqa: E402
from arbcheck.verify import MODES, TreeParams, random_tree  # noqa: E402
from run import FORMULATION_TAGS, stamp  # noqa: E402
from spans import Tracer  # noqa: E402


def sweep_params(seed: int) -> TreeParams:
    """The acceptance sweep's mix: d 1..3, horizon 1..4, branching cap 2..4."""
    return TreeParams(
        assets=1 + seed % 3,
        steps=1 + (seed // 3) % 4,
        max_branching=2 + (seed // 12) % 3,
        max_denominator=16,
        mode=MODES[seed % 2],
    )


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    count = int(argv[0]) if argv else 300
    trees = [(seed, random_tree(sweep_params(seed), seed)) for seed in range(count)]

    start = time.perf_counter()
    for seed, tree in trees:
        verify.equivalence_report(tree, seed=seed)
    untraced = time.perf_counter() - start

    with Tracer() as tracer:
        start = time.perf_counter()
        for seed, tree in trees:
            verify.equivalence_report(tree, seed=seed)
        traced = time.perf_counter() - start

    total = tracer.get("verify.equivalence_report").total_s
    strategy = tracer.get("verify.find_arbitrage").total_s
    emm = tracer.get("emm.build_emm").total_s
    geometry = total - strategy - emm - tracer.get("tree.validate").total_s
    print("stamp", stamp("sweep", None))
    print(f"sweep seeds 0..{count - 1}: untraced {untraced:.2f} s, traced {traced:.2f} s "
          f"(overhead {traced / untraced - 1:+.1%})")
    print(f"route strategy  {strategy:7.2f} s  {strategy / total:6.1%}")
    print(f"route geometry  {geometry:7.2f} s  {geometry / total:6.1%}")
    print(f"route emm       {emm:7.2f} s  {emm / total:6.1%}")
    for tag in FORMULATION_TAGS:
        st = tracer.get(f"lp.{tag}")
        print(f"lp.{tag:11s} calls {st.calls:6d}  self {st.self_s:7.2f} s  "
              f"rows_max {st.rows_max:4d}  vars_max {st.vars_max:4d}  bits_max {st.bits_max:4d}  "
              f"infeasible {st.outcomes['Infeasible']:5d}  unbounded {st.outcomes['Unbounded']:5d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
