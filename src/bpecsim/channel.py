"""Multi-modal broadcast erasure channel: mode schedules and slot sampling.

A block of ``n`` slots is divided into a first non-transient mode (A), zero or
more transient modes (T), and a final non-transient mode (B).  Within a mode
both receiver links erase i.i.d. with the mode's erasure probability,
independently across users and slots.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterator

import numpy as np
from numpy.random import Philox, SeedSequence

_FLOOR_EPS = 1e-9


def floor_index(x: float) -> int:
    """Floor that forgives float dust just below an integer, e.g. (32/35)*35."""
    return math.floor(x + _FLOOR_EPS)


def ceil_index(x: float) -> int:
    return math.ceil(x - _FLOOR_EPS)


class ModeKind(Enum):
    NONTRANSIENT_A = "A"
    TRANSIENT = "T"
    NONTRANSIENT_B = "B"


@dataclass(frozen=True)
class Mode:
    kind: ModeKind
    erasure_prob: float
    length: int

    def __post_init__(self) -> None:
        if not 0.0 <= self.erasure_prob <= 1.0:
            raise ValueError(f"erasure_prob must lie in [0, 1], got {self.erasure_prob}")
        if self.length < 0:
            raise ValueError(f"mode length must be non-negative, got {self.length}")


@dataclass(frozen=True)
class ModeSchedule:
    """Ordered mode sequence [A, T..., B] covering exactly n slots.

    Immutable; safe to share across concurrent trials.
    """

    modes: tuple[Mode, ...]
    n: int

    def __post_init__(self) -> None:
        if self.n <= 0:
            raise ValueError(f"blocklength must be positive, got {self.n}")
        if sum(m.length for m in self.modes) != self.n:
            raise ValueError("mode lengths must sum to the blocklength")
        kinds = [m.kind for m in self.modes]
        if (
            len(kinds) < 3
            or kinds[0] is not ModeKind.NONTRANSIENT_A
            or kinds[-1] is not ModeKind.NONTRANSIENT_B
            or any(k is not ModeKind.TRANSIENT for k in kinds[1:-1])
        ):
            raise ValueError("mode order must be [NonTransientA, Transient..., NonTransientB]")

    @property
    def n_a(self) -> int:
        return self.modes[0].length

    @property
    def n_t(self) -> int:
        return sum(m.length for m in self.modes[1:-1])

    @property
    def n_b(self) -> int:
        return self.modes[-1].length

    @property
    def delta_a(self) -> float:
        return self.modes[0].erasure_prob

    @property
    def delta_b(self) -> float:
        return self.modes[-1].erasure_prob

    def segments(self) -> Iterator[tuple[int, int, Mode]]:
        """Yield (start, stop, mode) half-open 0-based slot ranges, skipping empty modes."""
        t = 0
        for mode in self.modes:
            if mode.length > 0:
                yield t, t + mode.length, mode
            t += mode.length


def build_schedule(
    n: int,
    eta: float,
    n_t: int,
    delta_a: float,
    delta_t: float,
    delta_b: float,
) -> ModeSchedule:
    """Canonical A-T-B schedule with n_A = floor(eta * n) and the given transient length."""
    if n <= 0:
        raise ValueError(f"blocklength must be positive, got {n}")
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must lie in [0, 1], got {eta}")
    if n_t < 0:
        raise ValueError(f"transient length must be non-negative, got {n_t}")
    n_a = floor_index(eta * n)
    if n_a + n_t > n:
        raise ValueError(f"n_A + n_T = {n_a + n_t} exceeds blocklength {n}")
    modes = (
        Mode(ModeKind.NONTRANSIENT_A, delta_a, n_a),
        Mode(ModeKind.TRANSIENT, delta_t, n_t),
        Mode(ModeKind.NONTRANSIENT_B, delta_b, n - n_a - n_t),
    )
    return ModeSchedule(modes=modes, n=n)


def threshold(erasure_prob: float) -> int:
    """The least 64-bit Philox word that delivers a slot of erasure probability p.

    A word w delivers when its 53-bit uniform (w >> 11) * 2**-53 is at least p.
    Both sides of that test are exact, so it is the integer test
    w >= ceil(p * 2**53) << 11; for p = 1 the threshold is 2**64 and no word
    delivers.
    """
    return math.ceil(erasure_prob * 2**53) << 11


def channel_key(seed: int | SeedSequence) -> np.ndarray:
    """The Philox key that ``Philox(seed=seed)`` derives, without building it."""
    ss = seed if isinstance(seed, SeedSequence) else SeedSequence(seed)
    return ss.generate_state(2, np.uint64)


def _words(bg: Philox, key: np.ndarray, t0: int, count: int) -> np.ndarray:
    """(2, count) Philox words of 1-based slots t0, t0 + 1, ... under ``key``,
    one row per user, drawn by ``bg`` after rekeying it."""
    # Philox yields 4 words per counter step; a fresh keyed Philox starts at 0
    block, rem = divmod(2 * (t0 - 1), 4)
    bg.state = {
        "bit_generator": "Philox",
        "state": {"counter": np.array([block, 0, 0, 0], np.uint64), "key": key},
        "buffer": np.zeros(4, np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return bg.random_raw(rem + 2 * count)[rem:].reshape(count, 2).T


def sample_block(
    schedule: ModeSchedule, keys: np.ndarray, t0: int = 1, t1: int | None = None
) -> np.ndarray:
    """(2, T, t1 - t0) bool link states of 1-based slots t0..t1-1 (default 1..n)
    for the (T, 2) uint64 Philox keys, one row per key.

    Every slot's word is compared with one per-slot threshold row; slots past n
    take the mode-B probability (deadline-free runs read them).  Each row's
    words are compared as soon as they are drawn, so one row's words are alive
    at a time, and none once the block is returned.
    """
    n = schedule.n
    t1 = n + 1 if t1 is None else t1
    first, count = t0 - 1, t1 - t0
    # 0-based half-open pieces that tile [0, max(n, t1 - 1))
    pieces = [(start, stop, mode.erasure_prob) for start, stop, mode in schedule.segments()]
    pieces.append((n, max(n, t1 - 1), schedule.delta_b))
    thresholds = np.empty(count, np.uint64)
    erased = []
    for start, stop, p in pieces:
        lo, hi = max(start - first, 0), min(stop - first, count)
        if lo < hi:
            thr = threshold(p)
            if thr >> 64:  # p = 1: 2**64 fits no uint64; cleared after the compare
                erased.append((lo, hi))
                thr = 0
            thresholds[lo:hi] = thr
    out = np.empty((2, len(keys), count), dtype=bool)
    if not len(keys):
        return out
    bg = Philox(key=keys[0])
    for r, key in enumerate(keys):
        np.greater_equal(_words(bg, key, t0, count), thresholds, out=out[:, r])
    for lo, hi in erased:
        out[:, :, lo:hi] = False
    return out


class ChannelSampler:
    """Counter-addressable sampler: slot t is a pure function of (seed, t).

    Slot t (1-based) consumes the Philox words 2(t-1) and 2(t-1)+1 for users 1
    and 2, so any subrange regenerates identically without stored realizations.
    One sampler is owned by exactly one trial.
    """

    def __init__(self, schedule: ModeSchedule, seed: int | SeedSequence):
        self.schedule = schedule
        # a seeded Philox starts at counter 0, so the key alone addresses every word
        self._key = channel_key(seed)

    def slots(self, t0: int, t1: int) -> tuple[np.ndarray, np.ndarray]:
        """Link states for 1-based slots t0..t1-1 as uint8 arrays (s=1: received):
        a one-row ``sample_block``."""
        if t0 < 1 or t1 < t0:
            raise IndexError(f"invalid slot range [{t0}, {t1})")
        s1, s2 = sample_block(self.schedule, self._key[None], t0, t1)[:, 0].view(np.uint8)
        return s1, s2
