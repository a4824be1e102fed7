"""Repeated seeded trials with deterministic aggregation.

Per-trial seeds derive from (master_seed, trial_index), so results are
reproducible and independent of any execution order; aggregation is a
deterministic reduction over trial indices.  That lets ``simulate`` run
contiguous chunks of trial indices in forked child processes, up to one per
core the process may use, and still report the same bytes as a one-core run.
Within a chunk, trials run in blocks through ``protocol.run_block``.
"""
from __future__ import annotations

import math
import os
import pickle
import sys
import threading
from dataclasses import dataclass

from numpy.random import SeedSequence

from .channel import floor_index
from .protocol import Scheme, plan_scheme, run_block, run_trial
from .rates import ModeParams

_Z95 = 1.959963984540054
# Cost model of a simulate call, measured on a 2-vCPU AMD EPYC host with the
# inter-modal scheme (the slowest) at n = 1e2 ... 1e5: a trial takes about
# _TRIAL_S + n * _SLOT_S, and each forked worker adds about _FORK_S of wall
# time (the fork, its copy-on-write faults, reading its result, reaping it).
# Measured, two workers beat one from about 3 ms of work (about 120 trials at
# n = 1e3, 4 at n = 1e5); the model puts that point at 2 * _FORK_S.
_TRIAL_S = 15e-6
_SLOT_S = 9e-9
_FORK_S = 2e-3
# Each chunk runs its trials in blocks of at most this many slots, which share
# their array work: 32 trials at n = 1e3, one trial for n > 2^14.
_BLOCK_SLOTS = 2**15


@dataclass(frozen=True)
class AggregateStats:
    """Aggregated simulation outcome across trials."""

    trials: int
    mean_sum_rate: float
    sum_rate_ci95: tuple[float, float]
    failure_rate_1: float
    failure_rate_2: float

    @property
    def failure_rate(self) -> float:
        return 0.5 * (self.failure_rate_1 + self.failure_rate_2)


def trial_seed(master_seed: int, index: int) -> SeedSequence:
    """Stable per-trial seed derivation."""
    return SeedSequence((master_seed, index))


# what simulate calls, looked up at call time; see _watched
_TRIAL_HOOKS = (run_trial, trial_seed)


def simulate(
    p: ModeParams,
    n: int,
    n_t: int,
    delta_t: float,
    scheme: Scheme,
    guard_coeff: float,
    trials: int,
    master_seed: int,
) -> AggregateStats:
    """Run independent trials and aggregate.

    A user whose block decode fails contributes zero bits for that trial, so
    the per-trial sum rate is (bits_delivered_1 + bits_delivered_2) / n.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    plan = plan_scheme(p, n, scheme, guard_coeff)
    per_block = max(1, _BLOCK_SLOTS // n)

    def _trial_chunk(lo: int, hi: int) -> list[tuple[float, bool, bool]]:
        """(sum_rate, decode_ok_1, decode_ok_2) of trials lo, ..., hi - 1."""
        outcomes = []
        for first in range(lo, hi, per_block):
            seeds = [trial_seed(master_seed, k) for k in range(first, min(first + per_block, hi))]
            # run_trial runs the block driver on one row, and a tracer that
            # wraps it sees each long trial as its own call
            if len(seeds) == 1:
                stats = run_trial(p, n, n_t, delta_t, plan, seeds[0])
                outcomes.append((stats.sum_rate, stats.decode_ok_1, stats.decode_ok_2))
                continue
            outcomes += run_block(p, n, n_t, delta_t, plan, seeds).rows()
        return outcomes

    k = min(trials, _worker_count(trials, n))
    bounds = [(trials * i // k, trials * (i + 1) // k) for i in range(k)]
    chunks = _run_chunks(_trial_chunk, bounds)
    outcomes = [outcome for chunk in chunks for outcome in chunk]
    sum_rates = [sum_rate for sum_rate, _, _ in outcomes]
    fail1 = sum(not ok1 for _, ok1, _ in outcomes)
    fail2 = sum(not ok2 for _, _, ok2 in outcomes)
    mean = sum(sum_rates) / trials
    if trials > 1:
        var = sum((x - mean) ** 2 for x in sum_rates) / (trials - 1)
        half = _Z95 * math.sqrt(var / trials)
    else:
        half = 0.0
    return AggregateStats(
        trials=trials,
        mean_sum_rate=mean,
        sum_rate_ci95=(mean - half, mean + half),
        failure_rate_1=fail1 / trials,
        failure_rate_2=fail2 / trials,
    )


def _worker_count(trials: int, n: int) -> int:
    """How many processes should share a simulate call of ``trials`` x ``n``.

    k workers take about W / k + (k - 1) * _FORK_S for W seconds of work, so
    a k-th worker pays while k * (k - 1) * _FORK_S < W; the count is also
    capped by the cores in the CPU affinity mask (``taskset`` restricts it)
    and by ``trials``.  One process when another thread runs, where a forked
    child can deadlock on a lock that thread held, and when something in this
    process watches the trials, which would not see those run in a child.
    """
    if threading.active_count() > 1 or not hasattr(os, "fork") or _watched():
        return 1
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:
        cores = os.cpu_count() or 1
    work = trials * (_TRIAL_S + n * _SLOT_S)
    k = 1
    while k < min(cores, trials) and (k + 1) * k * _FORK_S < work:
        k += 1
    return k


def _watched() -> bool:
    """A trace or profile function is set, or ``run_trial`` or ``trial_seed``
    was replaced here (a tracer's wrapper, a test double)."""
    replaced = (run_trial, trial_seed) != _TRIAL_HOOKS
    return replaced or sys.gettrace() is not None or sys.getprofile() is not None


def _run_chunks(chunk, bounds: list[tuple[int, int]]) -> list:
    """[chunk(lo, hi) for (lo, hi) in bounds], the first in this process.

    Every other chunk runs in a forked child, which pickles its result, or
    its exception with the formatted traceback, to a pipe and leaves through
    ``os._exit``, so no exit handler or stdio flush of the parent runs twice.
    The parent reads every pipe and reaps every child even when its own chunk
    raises, then re-raises the first child exception in chunk order.
    """
    children = []
    try:
        for lo, hi in bounds[1:]:
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                _child(chunk, lo, hi, read_fd, write_fd)
            os.close(write_fd)
            children.append((pid, read_fd))
        results = [chunk(*bounds[0])]
    finally:
        payloads = []
        for pid, read_fd in children:
            with os.fdopen(read_fd, "rb") as pipe:
                data = pipe.read()
            payloads.append((data, os.waitpid(pid, 0)[1]))
    for data, status in payloads:
        if not data:
            code = os.waitstatus_to_exitcode(status)
            raise RuntimeError(f"trial worker ended without a result (exit code {code})")
        ok, value = pickle.loads(data)
        if not ok:
            _reraise(*value)
        results.append(value)
    return results


class _ChildTraceback(Exception):
    """The traceback of an exception raised in a trial worker, as text."""

    def __str__(self) -> str:
        return self.args[0]


def _reraise(exc_data: bytes | None, tb: str) -> None:
    """Raise a child's exception, with its traceback as the cause."""
    try:
        exc = pickle.loads(exc_data)
    except Exception:  # it could not be pickled in the child or unpickled here
        raise RuntimeError(f"trial worker failed:\n{tb}") from None
    raise exc from _ChildTraceback(tb)


def _child(chunk, lo: int, hi: int, read_fd: int, write_fd: int) -> None:
    """Body of a forked worker: run one chunk, send the outcome, exit."""
    code = 1
    try:
        os.close(read_fd)
        try:
            payload = (True, chunk(lo, hi))
        except BaseException as exc:  # sent to the parent, which re-raises it
            payload = (False, _exception_payload(exc))
        with os.fdopen(write_fd, "wb") as pipe:
            pickle.dump(payload, pipe)
        code = 0
    finally:
        os._exit(code)


def _exception_payload(exc: BaseException) -> tuple[bytes | None, str]:
    """(pickled exc, or None if it cannot be pickled; its formatted traceback)."""
    import traceback  # only a failing worker needs it

    tb = "".join(traceback.format_exception(type(exc), exc, exc.__traceback__))
    try:
        return pickle.dumps(exc), tb
    except Exception:
        return None, tb


def convergence_sweep(
    p: ModeParams,
    scheme: Scheme,
    n_list: list[int],
    trials: int,
    master_seed: int,
    *,
    delta_t: float | None = None,
    guard_coeff: float = 3.0,
    n_t: int | None = None,
) -> list[tuple[int, float, float]]:
    """One (n, mean_sum_rate, failure_rate) row per blocklength, ascending.

    Unless given, the transient mode defaults to ceil(n^(2/3)) slots at the
    mode-B erasure probability, clamped to the room mode A leaves.
    """
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValueError("n_list must be strictly ascending")
    dt = p.delta_b if delta_t is None else delta_t
    rows = []
    for n in n_list:
        nt = default_transient_length(n, p.eta) if n_t is None else n_t
        agg = simulate(p, n, nt, dt, scheme, guard_coeff, trials, master_seed)
        rows.append((n, agg.mean_sum_rate, agg.failure_rate))
    return rows


def default_transient_length(n: int, eta: float) -> int:
    """ceil(n^(2/3)), clamped so the schedule still fits."""
    return max(0, min(math.ceil(n ** (2.0 / 3.0)), n - floor_index(eta * n)))
