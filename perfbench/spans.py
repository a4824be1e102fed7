"""Spans around bpecsim's layer boundaries, recorded from outside the package.

A traced pass replaces callables that bpecsim looks up at call time (module
attributes and class methods) with wrappers that record one span per call:
name, parent span, start, end, the time its direct children cover, and a
per-call note.  Nothing in the package changes; the originals are put back
when the pass ends.  A boundary that a later refactor removed is reported as
absent instead of failing the run.
"""
from __future__ import annotations

import math
import statistics
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, NamedTuple, Optional

import numpy

import bpecsim.channel
import bpecsim.cli
import bpecsim.montecarlo
import bpecsim.protocol
import bpecsim.rates


class Span(NamedTuple):
    name: str
    parent: int  # index into Tracer.spans; -1 for a root span
    start: float
    end: float
    child: float  # part of [start, end) covered by direct child spans
    note: Any

    @property
    def self_time(self) -> float:
        return self.end - self.start - self.child


Note = Callable[[tuple, dict, Any], Any]


class Tracer:
    """Collects spans in memory; one tracer per traced pass."""

    def __init__(self) -> None:
        self.spans: list[Optional[Span]] = []
        self.absent: list[str] = []
        self._open: list[int] = []
        self._child: list[float] = []

    def wrap(self, name: str, fn: Callable, note: Optional[Note] = None) -> Callable:
        spans, open_, child_acc = self.spans, self._open, self._child

        def traced(*args, **kwargs):
            parent = open_[-1] if open_ else -1
            idx = len(spans)
            spans.append(None)
            open_.append(idx)
            child_acc.append(0.0)
            value = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if note is not None:
                    value = note(args, kwargs, result)
                return result
            finally:
                end = perf_counter()
                open_.pop()
                child = child_acc.pop()
                if child_acc:
                    child_acc[-1] += end - start
                spans[idx] = Span(name, parent, start, end, child, value)

        return traced

    @contextmanager
    def installed(self, points):
        """Wrap each (owner, attribute, span name, note) for the block's duration."""
        undo = []
        try:
            for owner, attr, name, note in points:
                original = getattr(owner, attr, None)
                if not callable(original):
                    self.absent.append(f"{name} ({attr})")
                    continue
                setattr(owner, attr, self.wrap(name, original, note))
                undo.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)


def _slot_count(args, kwargs, result) -> int:
    return len(result[0])


def _trial_note(args, kwargs, result) -> tuple[str, str, bool, int]:
    plan = args[4] if len(args) > 4 else kwargs["plan"]
    n = args[1] if len(args) > 1 else kwargs["n"]
    driver = kwargs.get("driver", "auto")
    return plan.scheme.value, driver, result.decode_ok_1 and result.decode_ok_2, n


def boundary_points() -> list[tuple[Any, str, str, Optional[Note]]]:
    """The layer boundaries a traced pass wraps, with their span names."""
    cli, mc, proto, ch, rates = (
        bpecsim.cli,
        bpecsim.montecarlo,
        bpecsim.protocol,
        bpecsim.channel,
        bpecsim.rates,
    )
    points = [
        (cli, "main", "cli.main", None),
        (mc, "simulate", "montecarlo.simulate", None),
        (mc, "trial_seed", "montecarlo.trial_seed", None),
        (mc, "plan_scheme", "protocol.plan_scheme", None),
        (proto, "plan_scheme", "protocol.plan_scheme", None),
        (mc, "run_trial", "protocol.run_trial", _trial_note),
        (proto, "run_trial", "protocol.run_trial", _trial_note),
        (numpy, "flatnonzero", "protocol.index_build", None),
        (ch.ChannelSampler, "__init__", "channel.init", None),
        (ch.ChannelSampler, "slots", "channel.slots", _slot_count),
        (rates, "vertices", "rates.vertices", None),
        (rates, "max_sum_rate", "rates.max_sum_rate", None),
        (rates, "outer_region", "rates.outer_region", None),
    ]
    points += [(rates, f"region_c{k}", "rates.region_c", None) for k in (1, 2, 3)]
    points += [
        (rates, f"achievable_{kind}_sum", "rates.achievable", None)
        for kind in ("intermodal", "intramodal", "nofeedback")
    ]
    return points


# (name, unit, better) of every per-layer metric, in report order.
LAYER_METRICS = [
    ("channel.slots.self_s", "s", "lower"),
    ("channel.slots.ns_per_slot", "ns", "lower"),
    ("channel.slots.slots", "count", "lower"),
    ("channel.init.self_s", "s", "lower"),
    ("protocol.index_build.self_s", "s", "lower"),
    ("protocol.index_build.calls", "count", "lower"),
    ("protocol.run_trial.self_s", "s", "lower"),
    ("protocol.run_trial.inter.ms_p50", "ms", "lower"),
    ("protocol.run_trial.intra.ms_p50", "ms", "lower"),
    ("protocol.run_trial.nofb.ms_p50", "ms", "lower"),
    ("protocol.run_trial.ms_p99", "ms", "lower"),
    ("protocol.run_trial.samples", "count", "higher"),
    ("protocol.plan_scheme.self_s", "s", "lower"),
    ("protocol.plan_scheme.calls", "count", "lower"),
    ("protocol.reference.self_s", "s", "lower"),
    ("protocol.reference.slots_per_s", "slot/s", "higher"),
    ("montecarlo.simulate.self_s", "s", "lower"),
    ("montecarlo.trial_seed.self_s", "s", "lower"),
    ("montecarlo.trials", "count", "higher"),
    ("montecarlo.decode_ok_ratio", "ratio", "higher"),
    ("rates.vertices.self_s", "s", "lower"),
    ("rates.max_sum_rate.self_s", "s", "lower"),
    ("rates.outer_region.self_s", "s", "lower"),
    ("rates.region_c.self_s", "s", "lower"),
    ("rates.achievable.self_s", "s", "lower"),
    ("rates.calls", "count", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("process.wall_s", "s", "lower"),
    ("process.unattributed_s", "s", "lower"),
    ("process.cpu_s", "s", "lower"),
    ("process.cpu_util", "ratio", "higher"),
    ("process.trace_overhead", "ratio", "lower"),
    ("process.speed_factor", "ratio", "lower"),
    ("error_rate", "ratio", "lower"),
]

# span names whose self time is reported, e.g. "channel.slots"
_SELF_TIMED = [name[: -len(".self_s")] for name, _, _ in LAYER_METRICS if name.endswith(".self_s")]


def _p99(values: list[float]) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(0.99 * len(ordered)) - 1)]


def pass_metrics(spans: list[Span], wall_s: float, cpu_s: float) -> dict[str, float]:
    """Per-layer sums for one traced pass (the process.trace_overhead,
    process.speed_factor and error_rate entries are filled in by the caller)."""
    self_s = dict.fromkeys(_SELF_TIMED, 0.0)
    calls = dict.fromkeys(_SELF_TIMED, 0)
    trial_ms: dict[str, list[float]] = {"inter": [], "intra": [], "nofb": []}
    slots = ref_slots = mc_trials = mc_ok = 0
    for sp in spans:
        name = sp.name
        if name == "protocol.run_trial":
            scheme, driver, ok, n = sp.note
            if driver == "reference":
                name = "protocol.reference"
                ref_slots += n
            else:
                trial_ms[scheme].append((sp.end - sp.start) * 1e3)
                if sp.parent >= 0 and spans[sp.parent].name == "montecarlo.simulate":
                    mc_trials += 1
                    mc_ok += ok
        elif name == "channel.slots":
            slots += sp.note
        self_s[name] += sp.self_time
        calls[name] += 1
    every_trial = [ms for values in trial_ms.values() for ms in values]
    out = {f"{name}.self_s": value for name, value in self_s.items()}
    out.update(
        {
            "channel.slots.ns_per_slot": self_s["channel.slots"] / slots * 1e9 if slots else 0.0,
            "channel.slots.slots": slots,
            "protocol.index_build.calls": calls["protocol.index_build"],
            "protocol.run_trial.ms_p99": _p99(every_trial) if every_trial else 0.0,
            "protocol.run_trial.samples": len(every_trial),
            "protocol.plan_scheme.calls": calls["protocol.plan_scheme"],
            "protocol.reference.slots_per_s": (
                ref_slots / self_s["protocol.reference"] if ref_slots else 0.0
            ),
            "montecarlo.trials": mc_trials,
            "montecarlo.decode_ok_ratio": mc_ok / mc_trials if mc_trials else 0.0,
            "rates.calls": sum(calls[n] for n in _SELF_TIMED if n.startswith("rates.")),
            "process.wall_s": wall_s,
            "process.unattributed_s": wall_s - sum(self_s.values()),
            "process.cpu_s": cpu_s,
            "process.cpu_util": cpu_s / wall_s,
        }
    )
    for scheme, values in trial_ms.items():
        out[f"protocol.run_trial.{scheme}.ms_p50"] = statistics.median(values) if values else 0.0
    return out
