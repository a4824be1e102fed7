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


def sample_block(
    schedule: ModeSchedule, keys: np.ndarray, t0: int = 1, t1: int | None = None
) -> np.ndarray:
    """(2, T, t1 - t0) bool link states of 1-based slots t0..t1-1 (default 1..n)
    for the (T, 2) uint64 Philox keys, one row per key.

    Slot t keeps the Philox words 2(t-1) (user 1) and 2(t-1)+1 (user 2) of its
    row.  A slot of erasure probability 0 or 1 has a fixed state, so a row
    draws words only from the first to the last mode piece of the range whose
    probability lies strictly between 0 and 1, and a range with no such piece
    draws none.  The word buffer holds just those words, in the order they are
    drawn; each random piece is compared over all rows at once against its
    scalar threshold, and a fixed piece is written without a compare.  Slots
    past n take the mode-B probability (deadline-free runs read them).  The
    whole block's words are alive at once: at most 1 MiB for the blocks of
    at most 2**16 slots that ``simulate`` runs, and a one-row call compares
    its row where Philox wrote it.  Raises IndexError unless 1 <= t0 <= t1.
    """
    n = schedule.n
    t1 = n + 1 if t1 is None else t1
    if t0 < 1 or t1 < t0:
        raise IndexError(f"invalid slot range [{t0}, {t1})")
    first, count = t0 - 1, t1 - t0
    out = np.empty((2, len(keys), count), dtype=bool)
    if not len(keys):
        return out
    # 0-based half-open slot pieces that tile [0, max(n, t1 - 1)), cut to the
    # range as (lo, hi) word ranges: slot s of the range holds the words 2s
    # (user 1) and 2s + 1 (user 2)
    slot_pieces = [(start, stop, mode.erasure_prob) for start, stop, mode in schedule.segments()]
    slot_pieces.append((n, max(n, t1 - 1), schedule.delta_b))
    pieces = []
    for start, stop, p in slot_pieces:
        lo, hi = 2 * max(start - first, 0), 2 * min(stop - first, count)
        if lo < hi:
            pieces.append((lo, hi, threshold(p)))
    drawn = [(lo, hi) for lo, hi, thr in pieces if 0 < thr < 2**64]
    if drawn:
        # range word w is the row's Philox word 2 * first + w; Philox yields 4
        # words per counter step, and a fresh keyed Philox starts at 0;
        # assigning the whole state per row also empties the word buffer
        w0, w1 = drawn[0][0], drawn[-1][1]
        block, rem = divmod(2 * first + w0, 4)
        state = {"bit_generator": "Philox", "state": {"counter": [block, 0, 0, 0], "key": None},
                 "buffer": [0] * 4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        bg = Philox(key=0)
        words = np.empty((len(keys), w1 - w0), np.uint64) if len(keys) > 1 else None
        for r, key in enumerate(keys.tolist()):
            state["state"]["key"] = key
            bg.state = state
            row = bg.random_raw(rem + w1 - w0)[rem:]
            if words is None:  # one row is compared where Philox wrote it
                words = row[None]
            else:
                words[r] = row
            # at most one row's draw lives beside the block's words: with two,
            # glibc's malloc gave a block of two long rows back to the OS and
            # faulted it in again every block
            del row
    received = np.empty((len(keys), 2 * count), dtype=bool)
    for lo, hi, thr in pieces:
        if 0 < thr < 2**64:
            np.greater_equal(words[:, lo - w0 : hi - w0], thr, out=received[:, lo:hi])
        else:  # p = 0 delivers every word, p = 1 (threshold 2**64) none
            received[:, lo:hi] = thr == 0
    # each slot's two bools read as one little-endian uint16: user 1 is its
    # low byte, user 2 its high byte
    pairs = received.view("<u2")
    np.copyto(out[0].view(np.uint8), pairs, casting="unsafe")
    np.right_shift(pairs, 8, out=out[1].view(np.uint8), casting="unsafe")
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
        s1, s2 = sample_block(self.schedule, self._key[None], t0, t1)[:, 0].view(np.uint8)
        return s1, s2
