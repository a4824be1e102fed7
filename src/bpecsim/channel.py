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
from typing import Iterator, NamedTuple

import numpy as np
from numpy.random import Generator, Philox, SeedSequence

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


class SlotState(NamedTuple):
    """Per-slot link states; s_i = 1 means receiver i gets the input symbol."""

    s1: int
    s2: int


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

    def erasure_prob_at(self, t: int) -> float:
        """Erasure probability of slot t, 1-based, 1 <= t <= n."""
        if not 1 <= t <= self.n:
            raise IndexError(f"slot index {t} outside 1..{self.n}")
        return next(
            mode.erasure_prob for start, stop, mode in self.segments() if start < t <= stop
        )


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


class ChannelSampler:
    """Counter-addressable sampler: slot t is a pure function of (seed, t).

    Slot t (1-based) consumes the Philox words 2(t-1) and 2(t-1)+1 for users 1
    and 2, so any subrange regenerates identically without stored realizations.
    One sampler is owned by exactly one trial.
    """

    def __init__(self, schedule: ModeSchedule, seed: int | SeedSequence):
        self.schedule = schedule
        self._ss = seed if isinstance(seed, SeedSequence) else SeedSequence(seed)
        base = Philox(seed=self._ss)
        state = base.state
        self._key = state["state"]["key"].copy()
        self._counter0 = state["state"]["counter"].copy()

    def _uniforms(self, offset: int, count: int) -> np.ndarray:
        """`count` uniforms in [0, 1) starting at absolute word offset."""
        block, rem = divmod(offset, 4)
        counter = self._counter0.copy()
        carry = block
        for i in range(4):
            total = int(counter[i]) + carry
            counter[i] = total & 0xFFFFFFFFFFFFFFFF
            carry = total >> 64
            if carry == 0:
                break
        bg = Philox(counter=counter, key=self._key)
        gen = Generator(bg)
        words = gen.integers(0, 2**64, size=rem + count, dtype=np.uint64, endpoint=False)
        return (words[rem:] >> np.uint64(11)) * 2.0**-53

    def _erasure_probs(self, t0: int, t1: int) -> np.ndarray:
        probs = np.empty(t1 - t0, dtype=np.float64)
        for start, stop, mode in self.schedule.segments():
            lo, hi = max(start, t0), min(stop, t1)
            if lo < hi:
                probs[lo - t0 : hi - t0] = mode.erasure_prob
        if t1 > self.schedule.n:
            probs[max(self.schedule.n, t0) - t0 :] = self.schedule.delta_b
        return probs

    def slots(self, t0: int, t1: int) -> tuple[np.ndarray, np.ndarray]:
        """Link states for 1-based slots t0..t1-1 as uint8 arrays (s=1: received)."""
        if t0 < 1 or t1 < t0:
            raise IndexError(f"invalid slot range [{t0}, {t1})")
        count = t1 - t0
        u = self._uniforms(2 * (t0 - 1), 2 * count)
        probs = self._erasure_probs(t0 - 1, t1 - 1)
        s1 = (u[0::2] >= probs).astype(np.uint8)
        s2 = (u[1::2] >= probs).astype(np.uint8)
        return s1, s2

    def slot(self, t: int) -> SlotState:
        """Sample a single 1-based slot; errors outside 1..n."""
        if not 1 <= t <= self.schedule.n:
            raise IndexError(f"slot index {t} outside 1..{self.schedule.n}")
        s1, s2 = self.slots(t, t + 1)
        return SlotState(int(s1[0]), int(s2[0]))
