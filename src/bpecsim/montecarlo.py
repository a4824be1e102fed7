"""Repeated seeded trials with deterministic aggregation.

Per-trial seeds derive from (master_seed, trial_index), so results are
reproducible and independent of any execution order; aggregation is a
deterministic reduction over trial indices.  That lets ``simulate`` run
contiguous chunks of trial indices in forked child processes, up to one per
core the process may use, and still report the same bytes as a one-core run.
Within a chunk, trials run in blocks through ``protocol.run_block``; a chunk
returns, and a forked worker pickles, one (2, trials) bool array of decode
flags, which ``simulate`` turns into sum rates.

Trial k's channel is keyed by ``channel_key(trial_seed(master_seed,
k).spawn(1)[0])``: the Philox key of the first child of
``SeedSequence((master_seed, k))``.  ``_block_keys`` computes those keys for
a slab of up to ``_BLOCK_SLOTS`` trials at once (a whole chunk unless it is
longer), with numpy's SeedSequence mixing written as uint32 array operations
over the slab's trials, and each block takes its slice.  So key memory stays
under about 6 MB however many trials a chunk runs.
"""
from __future__ import annotations

import functools
import math
import os
import pickle
import sys
import threading
from dataclasses import dataclass

import numpy as np
from numpy.random import SeedSequence

from .channel import build_schedule, floor_index
from .protocol import Scheme, plan_scheme, run_block, run_trial
from .rates import ModeParams

_Z95 = 1.959963984540054
# Cost model of a simulate call, measured on a 2-vCPU AMD EPYC host with the
# inter-modal scheme (the slowest) at n = 1e2 ... 1e5: a trial takes about
# _TRIAL_S + n * _SLOT_S, and each forked worker adds about _FORK_S of wall
# time (the fork, its copy-on-write faults, reading its result, reaping it).
# Measured, two workers beat one from about 3 ms of work (4 trials at
# n = 1e5); the model puts that point at 2 * _FORK_S.  On one core, the fixed
# cost of a trial in a block is about 100-250 slots' worth (n = 1e2 ... 32768,
# Intel Xeon).
# On a 2-vCPU Intel Xeon host a bare fork round trip takes about 4 ms, twice
# _FORK_S; the three constants are fitted together, so one alone is not
# refitted.  The README calls (200 trials at n = 1e5, 2000 at n = 1e3) model
# 181 ms and 28 ms of work and take two workers under either fork figure.
_TRIAL_S = 5e-6
_SLOT_S = 9e-9
_FORK_S = 2e-3
# Each chunk runs its trials in blocks of at most this many slots, which share
# their array work: 65 trials at n = 1e3, one trial for n > 2^15.  A block
# costs about 150 us besides its trials (inter, n = 1e3), so larger blocks pay
# it less often; 2^17 adds about 1.8 MB of peak memory for no further gain.
_BLOCK_SLOTS = 2**16


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


# numpy's SeedSequence (numpy/random/bit_generator.pyx), whose output numpy
# documents as stable: it hashes its entropy words into a pool of four uint32
# words, mixes every pool word into every other, mixes in the entropy words
# past the fourth, then hashes the pool words into the output words
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875  # hash constants of the pool
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED  # hash constants of the output
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _words32(x: int) -> list[int]:
    """The 32-bit words of int x >= 0, least significant first, as SeedSequence
    splits an entropy int (0 is one word)."""
    words = [x & _MASK32]
    while x := x >> 32:
        words.append(x & _MASK32)
    return words


def _hash_consts(init: int, mult: int, calls) -> tuple[np.ndarray, np.ndarray]:
    """(xor, mult) column vectors of the given hash calls: call j xors its
    word with init * mult**j and multiplies it by init * mult**(j + 1)."""
    xor = [init * pow(mult, j, 2**32) & _MASK32 for j in calls]
    times = [c * mult & _MASK32 for c in xor]
    return np.array(xor, np.uint32)[:, None], np.array(times, np.uint32)[:, None]


def _hash(words: np.ndarray, consts: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    xor, mult = consts
    out = words ^ xor
    out *= mult
    out ^= out >> 16
    return out


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = x * _MIX_L
    out -= y * _MIX_R
    out ^= out >> 16
    return out


# the pool's first 4 hash calls fill it; then source word s is hashed into
# destination d != s by call 4 + 3s + (d if d < s else d - 1), and row s of
# each step is a placeholder, since a word is never mixed into itself
_FILL = _hash_consts(_INIT_A, _MULT_A, range(4))
_CROSS = [
    _hash_consts(_INIT_A, _MULT_A, [4 + 3 * s + d - (d > s) for d in range(4)])
    for s in range(4)
]
_OUTPUT = _hash_consts(_INIT_B, _MULT_B, range(4))


def _block_keys(master_seed: int, lo: int, hi: int) -> np.ndarray:
    """(hi - lo, 2) uint64 channel keys of trials lo, ..., hi - 1.

    Row r equals ``trial_seed(master_seed, lo + r).spawn(1)[0]
    .generate_state(2, np.uint64)``.  Only the low 32-bit word of the trial
    index changes inside a range that no multiple of 2**32 splits, so each
    such piece runs the same array operations, one row per trial.
    """
    if master_seed < 0:
        raise ValueError(f"the master seed must be non-negative, got {master_seed}")
    keys = np.empty((hi - lo, 2), np.uint64)
    k = lo
    while k < hi:
        high, low = divmod(k, 2**32)
        stop = min(hi, (high + 1) << 32)
        low_words = np.arange(low, low + stop - k, dtype=np.uint32)
        keys[k - lo : stop - lo] = _pool_keys(master_seed, high, low_words)
        k = stop
    return keys


def _pool_keys(master_seed: int, high: int, low: np.ndarray) -> np.ndarray:
    """Channel keys of trials high * 2**32 + low, one row per word of ``low``."""
    entropy = [*_words32(master_seed), low, *(_words32(high) if high else ())]
    entropy += [0] * (4 - len(entropy))  # a spawned sequence pads its entropy to the pool
    entropy.append(0)  # the spawn key (0,) of the first child
    pool = np.empty((4, len(low)), np.uint32)
    for i in range(4):
        pool[i] = entropy[i]
    pool = _hash(pool, _FILL)
    for s, consts in enumerate(_CROSS):
        mixed = _mix(pool, _hash(pool[s], consts))
        mixed[s] = pool[s]
        pool = mixed
    for i, word in enumerate(entropy[4:]):
        pool = _mix(pool, _hash(word, _tail_consts(i)))
    state = _hash(pool, _OUTPUT)
    # as SeedSequence.generate_state: little-endian word pairs are the uint64s
    return np.ascontiguousarray(state.T, dtype="<u4").view("<u8").astype(np.uint64, copy=False)


@functools.lru_cache(maxsize=None)
def _tail_consts(i: int) -> tuple[np.ndarray, np.ndarray]:
    """Hash constants of entropy word 4 + i, which is hashed into every pool word."""
    return _hash_consts(_INIT_A, _MULT_A, range(16 + 4 * i, 20 + 4 * i))


# what simulate calls, looked up at call time; see _watched
_TRIAL_HOOKS = (run_trial, trial_seed, _block_keys)


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
    the per-trial sum rate is (m1 * decode_ok_1 + m2 * decode_ok_2) / n.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    plan = plan_scheme(p, n, scheme, guard_coeff)
    # every trial builds this schedule; a bad one raises here, before any fork
    build_schedule(n, p.eta, n_t, p.delta_a, delta_t, p.delta_b)
    per_block = max(1, _BLOCK_SLOTS // n)
    # a chunk derives its keys a slab of whole blocks at a time, so their
    # memory does not grow with the chunk
    slab = _BLOCK_SLOTS - _BLOCK_SLOTS % per_block

    def _trial_chunk(lo: int, hi: int) -> np.ndarray:
        """(2, hi - lo) bool: user u + 1 decoded in trial lo + r."""
        if per_block == 1:
            # run_trial runs the block driver on one row, and a tracer that
            # wraps it sees each long trial as its own call; the generator
            # drops each TrialStats once its flags are read
            stats = (run_trial(p, n, n_t, delta_t, plan, trial_seed(master_seed, k))
                     for k in range(lo, hi))
            return np.array([(s.decode_ok_1, s.decode_ok_2) for s in stats]).T
        blocks = []
        for start in range(lo, hi, slab):
            keys = _block_keys(master_seed, start, min(start + slab, hi))
            for first in range(0, len(keys), per_block):
                block = keys[first : first + per_block]
                blocks.append(run_block(p, n, n_t, delta_t, plan, block).decode_ok)
        return np.concatenate(blocks, axis=1)

    k = min(trials, _worker_count(trials, n))
    bounds = [(trials * i // k, trials * (i + 1) // k) for i in range(k)]
    ok = np.concatenate(_run_chunks(_trial_chunk, bounds), axis=1)
    bits = plan.message_size(1) * ok[0] + plan.message_size(2) * ok[1]
    sum_rates = (bits / n).tolist()
    mean = _sum_in_order(sum_rates) / trials
    if trials > 1:
        var = _sum_in_order((x - mean) ** 2 for x in sum_rates) / (trials - 1)
        half = _Z95 * math.sqrt(var / trials)
    else:
        half = 0.0
    return AggregateStats(
        trials=trials,
        mean_sum_rate=mean,
        sum_rate_ci95=(mean - half, mean + half),
        failure_rate_1=(trials - int(ok[0].sum())) / trials,
        failure_rate_2=(trials - int(ok[1].sum())) / trials,
    )


def _sum_in_order(xs) -> float:
    """The floats xs added one at a time, left to right, as builtin ``sum``
    adds them before Python 3.12, whose compensated ``sum`` would change the
    last digits of a report with the Python version."""
    total = 0.0
    for x in xs:
        total += x
    return total


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
    """A trace or profile function is set, or ``run_trial``, ``trial_seed`` or
    ``_block_keys`` was replaced here (a tracer's wrapper, a test double)."""
    replaced = (run_trial, trial_seed, _block_keys) != _TRIAL_HOOKS
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
    try:
        length = math.ceil(n ** (2.0 / 3.0))
    except OverflowError:
        raise ValueError("blocklength n is too large: n^(2/3) overflows a float") from None
    return max(0, min(length, n - floor_index(eta * n)))
