"""Span tracer for arbcheck, applied from outside the package.

``Tracer`` wraps the public functions of each ``arbcheck`` module and
replaces every binding of them in every loaded ``arbcheck`` module, so
``from .lp import solve_lp`` copies are traced too. Each call becomes a
span; spans are folded on the fly into per-function counters (calls,
total and self seconds, exceptions raised). Self time is a span's
duration minus the time covered by its child spans, including the
tracer's own bookkeeping inside the child, so no layer is charged for
the tracer.

``solve_lp`` spans are keyed by formulation: the innermost enclosing
call among the functions in ``FORMULATIONS``. They also record the
program's shape, the outcome kind and the largest numerator or
denominator bit length in the returned point, ray or certificate.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter
from dataclasses import dataclass, field

# module -> public functions that get a span
TRACED = {
    "lp": ("make_lp", "solve_lp"),
    "geometry": ("ri_conv_contains_origin", "separation_optimum", "check_ri_certificate"),
    "emm": ("build_emm", "one_step_density", "support_function", "verify_martingale"),
    "verify": ("equivalence_report", "find_arbitrage", "report_to_json"),
    "linalg": ("span_basis", "in_span"),
    "tree": ("tree_from_json", "validate", "conditional_support"),
    "cli": ("main",),
}

# enclosing function -> formulation tag of the solve_lp calls it makes
FORMULATIONS = {
    "find_arbitrage": "strategy",
    "ri_conv_contains_origin": "ri",
    "separation_optimum": "separation",
    "support_function": "support",
    "one_step_density": "density",
}


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    raised: Counter = field(default_factory=Counter)
    # solve_lp only
    rows_max: int = 0
    vars_max: int = 0
    bits_max: int = 0
    outcomes: Counter = field(default_factory=Counter)


def max_bits(values) -> int:
    """Largest numerator or denominator bit length among exact rationals."""
    best = 0
    for v in values:
        best = max(best, v.numerator.bit_length(), v.denominator.bit_length())
    return best


def _outcome_vector(outcome):
    for attr in ("point", "ray", "certificate"):
        vec = getattr(outcome, attr, None)
        if vec is not None:
            return vec
    return ()


class Tracer:
    """Context manager: installs the wrappers on entry, restores every
    original binding on exit. ``stats`` maps span keys such as
    ``"geometry.separation_optimum"`` or ``"lp.strategy"`` to
    ``SpanStats``."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats: dict[str, SpanStats] = {}
        self._frames: list[list[float]] = []  # child seconds of each open span
        self._tags: list[str] = []
        self._patched: list[tuple[object, str, object]] = []

    def _stat(self, key: str) -> SpanStats:
        stat = self.stats.get(key)
        if stat is None:
            stat = self.stats[key] = SpanStats()
        return stat

    def wrap(self, key: str, fn):
        """Return ``fn`` wrapped in a span recorded under ``key``."""
        name = key.rsplit(".", 1)[1]
        tag = FORMULATIONS.get(name)
        is_solve = name == "solve_lp"
        frames, tags, clock = self._frames, self._tags, self.clock

        def span(*args, **kwargs):
            if tag:
                tags.append(tag)
            frame = [0.0]
            frames.append(frame)
            outcome = None
            error = None
            start = clock()
            try:
                outcome = fn(*args, **kwargs)
                return outcome
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = clock()
                frames.pop()
                if tag:
                    tags.pop()
                if is_solve:
                    stat = self._stat("lp." + (tags[-1] if tags else "other"))
                    lp = args[0] if args else kwargs["lp"]
                    stat.rows_max = max(stat.rows_max, lp.n_rows)
                    stat.vars_max = max(stat.vars_max, lp.n_vars)
                    if outcome is not None:
                        stat.outcomes[type(outcome).__name__] += 1
                        stat.bits_max = max(stat.bits_max, max_bits(_outcome_vector(outcome)))
                else:
                    stat = self._stat(key)
                stat.calls += 1
                stat.total_s += end - start
                stat.self_s += (end - start) - frame[0]
                if error is not None:
                    stat.raised[error] += 1
                if frames:
                    frames[-1][0] += clock() - start

        return span

    def __enter__(self) -> "Tracer":
        wrappers = {}
        for module, names in TRACED.items():
            mod = importlib.import_module(f"arbcheck.{module}")
            for name in names:
                fn = getattr(mod, name)
                wrappers[id(fn)] = (fn, self.wrap(f"{module}.{name}", fn))
        for modname, mod in list(sys.modules.items()):
            if modname != "arbcheck" and not modname.startswith("arbcheck."):
                continue
            for attr, value in list(vars(mod).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(mod, attr, entry[1])
                    self._patched.append((mod, attr, value))
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    def get(self, key: str) -> SpanStats:
        return self.stats.get(key) or SpanStats()
