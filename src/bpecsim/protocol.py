"""Feedback network-coding protocol over a sampled multi-modal channel.

A feedback scheme is a list of rounds, and ``SchemePlan.rounds()`` is the
only place that defines it.  Every round has the same three phases: uncoded
packets for user 1, uncoded packets for user 2, then XOR multicast of the two
virtual queues (packets each user is still missing but the other user
overheard).  Rounds differ only in size, in the slot where they start and in
the slot where they must stop.  The inter-modal scheme is one core round
spanning the mode boundary, plus an optional fresh-tail round chained to its
end that refills slack reserved by the concentration guard.  The intra-modal
scheme is one round per non-transient mode.  The no-feedback baseline has no
rounds; it sends idealized erasure-coded streams.

Two drivers iterate the same rounds and produce identical ``TrialStats``: a
per-slot reference driver that runs each phase as one loop, the raw phases
over a per-trial index of the slots some link hears and multicast slot by
slot (it supports per-slot observers and deadline-free runs), and a batched
driver that runs a block of trials sharing one plan as arrays: each phase
end of every row is one hit query on a sorted slot index (``_hits``), and
the block returns per-row decode flags, phase ends and backlogs.  The
reference loops carry per-user packet indices, and each reference receiver
keeps its own packets and the ones it overheard in two byte stores, so
decoding and the end-of-trial check each scan one.
Only observed runs build ``PacketId``s, ``Action``s and the packet-status
dict; an observer sees each packet's status written after every slot that
sends it.
"""
from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import chain
from typing import Callable, NamedTuple, Optional

import numpy as np
from numpy.random import SeedSequence, default_rng

from .channel import (
    ChannelSampler,
    ModeSchedule,
    build_schedule,
    ceil_index,
    floor_index,
    sample_block,
)
from .rates import (
    ModeParams,
    UnsupportedParametersError,
    optimal_raw_fraction,
)

_INF = math.inf


class Scheme(Enum):
    INTER_MODAL = "inter"
    INTRA_MODAL = "intra"
    NO_FEEDBACK = "nofb"


class Phase(Enum):
    RAW1 = "raw1"
    RAW2 = "raw2"
    MULTICAST = "multicast"
    FRESH_TAIL = "fresh_tail"
    DONE = "done"


class PacketStatus(Enum):
    FRESH = "fresh"
    AWAITING = "awaiting"
    OVERHEARD_ONLY = "overheard_only"
    DELIVERED = "delivered"


class PacketId(NamedTuple):
    user: int
    index: int


class Action(NamedTuple):
    """One transmitted symbol: an uncoded packet or the XOR of a queue pair."""

    kind: str  # "raw" | "xor"
    pids: tuple[PacketId, ...]
    bit: int


class ProtocolError(RuntimeError):
    pass


_UNKNOWN = 2  # a receiver's store byte for a packet it does not know yet


# ---------------------------------------------------------------------------
# Planning
# ---------------------------------------------------------------------------


class RoundSpec(NamedTuple):
    """One three-phase round: ``m1``/``m2`` packets per user, sent no earlier
    than slot ``start`` and abandoned at slot ``limit``.  A chained round
    starts when the previous round finishes instead."""

    label: str  # prefix of the round's phase-boundary keys
    m1: int
    m2: int
    start: int
    limit: int
    chained: bool = False


@dataclass(frozen=True)
class SchemePlan:
    """Precomputed per-trial budget.

    For the inter-modal scheme ``m1``/``m2`` size the core round and
    ``tail1``/``tail2`` the fresh-tail round; a user's full message is the sum.
    Intra-modal messages split into per-mode rounds ``run_a``/``run_b``; the
    no-feedback baseline carries per-mode erasure-code sizes per user.
    ``rounds()`` turns these fields into the rounds both drivers run.
    """

    scheme: Scheme
    n: int
    n_a: int
    m1: int
    m2: int
    alpha: float
    guard: int
    tail1: int = 0
    tail2: int = 0
    run_a: int = 0
    run_b: int = 0
    fec_a: tuple[int, int] = (0, 0)
    fec_b: tuple[int, int] = (0, 0)

    def rounds(self) -> tuple[RoundSpec, ...]:
        """The scheme's rounds in order; packet indices run on across rounds."""
        if self.scheme is Scheme.INTER_MODAL:
            core = RoundSpec("", self.m1, self.m2, 0, self.n)
            if self.tail1 + self.tail2 == 0:
                return (core,)
            return (core, RoundSpec("tail_", self.tail1, self.tail2, 0, self.n, chained=True))
        if self.scheme is Scheme.INTRA_MODAL:
            return (
                RoundSpec("a_", self.run_a, self.run_a, 0, self.n_a),
                RoundSpec("b_", self.run_b, self.run_b, self.n_a, self.n),
            )
        return ()

    def message_size(self, user: int) -> int:
        if self.scheme is Scheme.NO_FEEDBACK:
            return self.m1 if user == 1 else self.m2
        return sum(r.m1 if user == 1 else r.m2 for r in self.rounds())


def _resolve_span(
    t0: float, units: float, boundary: float, p_a: float, p_b: float
) -> tuple[float, float, float]:
    """Expected finish time of `units` Bernoulli successes from time t0, at
    success rate p_a per slot before `boundary` and p_b after.

    Returns (end_time, units_before_boundary, time_variance_estimate); the
    variance uses geometric sums, with the mode-crossing part converted at the
    post-boundary rate.
    """
    if units <= 0:
        return t0, 0.0, 0.0
    if t0 < boundary:
        cap = (boundary - t0) * p_a
        if units <= cap:
            end = t0 + units / p_a
            return end, units, units * (1.0 - p_a) / p_a**2
        in_a = cap
        rest = units - cap
        if p_b <= 0:
            return _INF, in_a, _INF
        var = (boundary - t0) * p_a * (1.0 - p_a) / p_b**2 + rest * (1.0 - p_b) / p_b**2
        return boundary + rest / p_b, in_a, var
    if p_b <= 0:
        return _INF, 0.0, _INF
    return t0 + units / p_b, 0.0, units * (1.0 - p_b) / p_b**2


def _round_timeline(
    t0: float, m: int, n_a: float, delta_a: float, delta_b: float
) -> tuple[float, float]:
    """Expected completion time and variance estimate for one three-phase
    round with m packets per user starting at time t0 (transmitter view:
    erasure delta_a before n_a, delta_b after)."""
    if m <= 0:
        return t0, 0.0
    pr_a, pr_b = 1.0 - delta_a**2, 1.0 - delta_b**2
    pd_a, pd_b = 1.0 - delta_a, 1.0 - delta_b
    q_a = delta_a / (1.0 + delta_a)
    q_b = delta_b / (1.0 + delta_b)

    t1, in_a1, var_r1 = _resolve_span(t0, m, n_a, pr_a, pr_b)
    t2, in_a2, var_r2 = _resolve_span(t1, m, n_a, pr_a, pr_b)
    if not math.isfinite(t2):
        return _INF, _INF

    backlog = []
    backlog_var = []
    for in_a in (in_a1, in_a2):
        in_b = m - in_a
        backlog.append(in_a * q_a + in_b * q_b)
        backlog_var.append(in_a * q_a * (1.0 - q_a) + in_b * q_b * (1.0 - q_b))

    ends, sigmas = [], []
    for b, vb in zip(backlog, backlog_var):
        e, _, vd = _resolve_span(t2, b, n_a, pd_a, pd_b)
        if not math.isfinite(e):
            return _INF, _INF
        end_rate = pd_b if e > n_a else pd_a
        sigmas.append(math.sqrt(vd + (vb / end_rate**2 if end_rate > 0 else 0.0)))
        ends.append(e)

    t_mc = max(ends)
    sig_q = max(sigmas)
    if abs(ends[0] - ends[1]) < sig_q:  # near-tied queues: expected max exceeds max mean
        t_mc += 0.5642 * sig_q
    drain_crosses = t2 < n_a < t_mc
    slope = (pd_a / pd_b) if (drain_crosses and pd_b > 0) else 1.0
    var_total = slope**2 * (var_r1 + var_r2) + (0.8264 * sig_q) ** 2
    return t_mc, var_total


def _plan_intermodal(p: ModeParams, n: int, n_a: int, guard: int) -> SchemePlan:
    if p.delta_a < p.delta_b:
        raise UnsupportedParametersError(
            "inter-modal scheme requires delta_a >= delta_b"
        )
    if p.delta_a >= 1.0 or p.delta_b >= 1.0:
        raise UnsupportedParametersError(
            "inter-modal scheme requires both erasure probabilities below 1"
        )
    alpha = min(optimal_raw_fraction(p), p.eta)
    m_core = max(0, floor_index((1.0 - p.delta_a**2) * (alpha * n - guard) / 2.0))

    core_end, core_var = _round_timeline(0.0, m_core, n_a, p.delta_a, p.delta_b)
    tail = 0
    if math.isfinite(core_end):
        # Size the fresh tail to refill the expected slack, keeping a margin
        # of three standard deviations of the completion-time estimate.
        def tail_fits(m_t: int, margin: float) -> bool:
            end, _ = _round_timeline(core_end, m_t, n_a, p.delta_a, p.delta_b)
            return end <= n - margin

        margin = 3.0 * math.sqrt(core_var) + 1.0
        for _ in range(2):
            lo, hi = 0, n
            while lo < hi:
                mid = (lo + hi + 1) // 2
                if tail_fits(mid, margin):
                    lo = mid
                else:
                    hi = mid - 1
            tail = lo
            _, tail_var = _round_timeline(core_end, tail, n_a, p.delta_a, p.delta_b)
            margin = 3.0 * math.sqrt(core_var + tail_var) + 1.0
    return SchemePlan(
        scheme=Scheme.INTER_MODAL,
        n=n,
        n_a=n_a,
        m1=m_core,
        m2=m_core,
        alpha=alpha,
        guard=guard,
        tail1=tail,
        tail2=tail,
    )


def _plan_intramodal(
    p: ModeParams, n: int, n_a: int, guard: int, guard_coeff: float
) -> SchemePlan:
    def round_size(length: int, delta: float) -> int:
        if length <= 0:
            return 0
        g = max(0, ceil_index(guard_coeff * length ** (2.0 / 3.0)))
        return max(0, floor_index((1.0 - delta**2) * (length - g) / (2.0 + delta)))

    run_a = round_size(n_a, p.delta_a)
    run_b = round_size(n - n_a, p.delta_b)
    m = run_a + run_b
    return SchemePlan(
        scheme=Scheme.INTRA_MODAL,
        n=n,
        n_a=n_a,
        m1=m,
        m2=m,
        alpha=0.0,
        guard=guard,
        run_a=run_a,
        run_b=run_b,
    )


def _nofb_slots(user: int, start: int, stop: int) -> slice:
    """A user's no-feedback slots in [start, stop): even for user 1, odd for user 2."""
    return slice(start + (start + user - 1) % 2, stop, 2)


def _nofb_share(user: int, start: int, stop: int) -> int:
    """``len(range(stop)[_nofb_slots(user, start, stop)])`` for a stop past a C ssize_t."""
    return (stop - _nofb_slots(user, start, stop).start + 1) // 2


def _plan_nofeedback(p: ModeParams, n: int, n_a: int, guard: int) -> SchemePlan:
    derate = max(0.0, 1.0 - guard / n)

    def stream_sizes(start: int, stop: int, delta: float) -> tuple[int, int]:
        share1 = _nofb_share(1, start, stop)
        share2 = _nofb_share(2, start, stop)
        k1 = max(0, floor_index((1.0 - delta) * derate * share1))
        k2 = max(0, floor_index((1.0 - delta) * derate * share2))
        return k1, k2

    fec_a = stream_sizes(0, n_a, p.delta_a)
    fec_b = stream_sizes(n_a, n, p.delta_b)
    return SchemePlan(
        scheme=Scheme.NO_FEEDBACK,
        n=n,
        n_a=n_a,
        m1=fec_a[0] + fec_b[0],
        m2=fec_a[1] + fec_b[1],
        alpha=0.0,
        guard=guard,
        fec_a=fec_a,
        fec_b=fec_b,
    )


def plan_scheme(p: ModeParams, n: int, scheme: Scheme, guard_coeff: float) -> SchemePlan:
    """Size a trial's message and phase budget.

    The plan uses only the non-transient mode knowledge (delta_a, delta_b and
    the boundary derived from eta); transient modes are invisible to it.
    """
    if n < 1:
        raise ValueError(f"blocklength must be at least 1, got {n}")
    if not 0 <= guard_coeff < _INF:
        raise ValueError(f"guard coefficient must be finite and non-negative, got {guard_coeff}")
    try:
        # a mode is at most n slots long, so this also bounds the intra-modal guards
        guard_slots = guard_coeff * n ** (2.0 / 3.0)
    except OverflowError:
        raise ValueError("blocklength n is too large: n^(2/3) overflows a float") from None
    if not math.isfinite(guard_slots):
        raise ValueError(f"guard coefficient {guard_coeff} times n^(2/3) is not finite")
    n_a = floor_index(p.eta * n)
    guard = max(0, ceil_index(guard_slots))
    if scheme is Scheme.INTER_MODAL:
        return _plan_intermodal(p, n, n_a, guard)
    if scheme is Scheme.INTRA_MODAL:
        return _plan_intramodal(p, n, n_a, guard, guard_coeff)
    return _plan_nofeedback(p, n, n_a, guard)


# ---------------------------------------------------------------------------
# Reference state machines
# ---------------------------------------------------------------------------


class _Engine:
    """One three-phase round over a fixed pair of packet-index ranges.

    Per user u (0 or 1), ``q[u]`` is the raw-phase queue, the ``range`` of
    the user's packet indices the round sends, with its head at ``pos[u]``,
    and ``v[u]`` is the virtual queue (indices of packets the other user
    overheard) with its head at ``vpos[u]``.  ``_raw_phase`` and ``_multicast``
    move the heads and fill ``v``; ``_advance`` ends the stages.
    """

    def __init__(
        self, pkts1: range, pkts2: range, start_t: int, label: str,
        boundaries: dict[str, Optional[int]],
    ):
        self.q = (pkts1, pkts2)
        self.pos = [0, 0]
        self.v: tuple[list[int], list[int]] = ([], [])
        self.vpos = [0, 0]
        self.label = label
        self.boundaries = boundaries
        self.stage = Phase.RAW1
        if not pkts1:
            self._advance(start_t)

    def _advance(self, t_next: int) -> None:
        """End the current stage, then each next stage with nothing to send;
        they all end at t_next, the slot count elapsed so far."""
        if self.stage is Phase.RAW1:
            self.boundaries[self.label + "raw1"] = t_next
            self.stage = Phase.RAW2
            if self.q[1]:
                return
        if self.stage is Phase.RAW2:
            self.boundaries[self.label + "raw2"] = t_next
            self.stage = Phase.MULTICAST
            if self.v[0] or self.v[1]:
                return
        self.boundaries[self.label + "multicast"] = t_next
        self.stage = Phase.DONE


class Transmitter:
    """Causal transmitter state: the plan's rounds and queues, the receiver
    pair ``rx`` that feedback reports on, and each packet's status.

    The reference loop runs the rounds in order and the phases of the current
    round, ``_cursor``.  A round waits for its start slot and is abandoned at
    its limit; a chained round opens when the previous round finishes.
    ``_pids``, each user's ``PacketId``s, and ``statuses`` are built on first
    read, so only observed runs and the virtual-queue views build them.
    """

    def __init__(self, plan: SchemePlan, bits1: np.ndarray, bits2: np.ndarray):
        if plan.scheme is Scheme.NO_FEEDBACK:
            raise ProtocolError("the no-feedback baseline has no transmitter state")
        self._bits = (bits1.tolist(), bits2.tolist())
        m1, m2 = plan.message_size(1), plan.message_size(2)
        self.rx = (Receiver(m1, m2), Receiver(m2, m1))
        self.boundaries: dict[str, Optional[int]] = {}
        self._rounds = plan.rounds()
        self._engines: list[Optional[_Engine]] = [None] * len(self._rounds)
        for i, spec in enumerate(self._rounds):
            for phase in (Phase.RAW1, Phase.RAW2, Phase.MULTICAST):
                self.boundaries[spec.label + phase.value] = None
            if not spec.chained:  # a chained round opens when it is reached
                self._open(i, spec.start)
        self._cursor = 0

    def _open(self, i: int, t: int) -> _Engine:
        spec = self._rounds[i]
        first1 = sum(r.m1 for r in self._rounds[:i])  # packet indices run on
        first2 = sum(r.m2 for r in self._rounds[:i])
        engine = self._engines[i] = _Engine(
            range(first1, first1 + spec.m1), range(first2, first2 + spec.m2),
            t, spec.label, self.boundaries,
        )
        return engine

    @cached_property
    def _pids(self) -> list[list[PacketId]]:
        return [[PacketId(u, i) for i in range(len(r.known))] for u, r in enumerate(self.rx, 1)]

    @cached_property
    def statuses(self) -> dict[PacketId, PacketStatus]:
        """Each packet's status, user 1's ids first: FRESH until sent, then
        AWAITING, OVERHEARD_ONLY or DELIVERED as an observed run writes it
        after each slot (``_show``)."""
        return dict.fromkeys(chain(*self._pids), PacketStatus.FRESH)

    @property
    def phase(self) -> Phase:
        """Phase of the first unfinished round from the current one on; a
        chained round reports FRESH_TAIL until it is done."""
        for i in range(self._cursor, len(self._rounds)):
            engine = self._engines[i]
            if engine is None or engine.stage is not Phase.DONE:
                return Phase.FRESH_TAIL if self._rounds[i].chained else engine.stage
        return Phase.DONE

    def _waiting(self, user: int) -> list[PacketId]:
        """The user's overheard packets not yet resolved, round by round."""
        pids = self._pids[user - 1]
        out = []
        for engine in self._engines:
            if engine is not None:
                out.extend(pids[i] for i in engine.v[user - 1][engine.vpos[user - 1] :])
        return out

    @property
    def v_1_given_2(self) -> list[PacketId]:
        return self._waiting(1)

    @property
    def v_2_given_1(self) -> list[PacketId]:
        return self._waiting(2)


class Receiver:
    """What a user's receiver knows, as the phase loops record it, in two
    byte stores indexed by packet index.  ``known`` holds its own packets:
    byte i is packet i's bit once heard uncoded or resolved from an XOR,
    else ``_UNKNOWN``.  ``overheard`` holds the other user's packets: byte i
    is that packet's bit once this receiver heard it while its own user did
    not, else ``_UNKNOWN``."""

    def __init__(self, m: int, m_other: int):
        self.known = bytearray([_UNKNOWN]) * m
        self.overheard = bytearray([_UNKNOWN]) * m_other

    def decode(self, m: int) -> tuple[bool, dict[int, int]]:
        """Whether own packets 0 to m - 1 are all known, and the known ones."""
        if not 0 <= m <= len(self.known):
            raise ValueError(f"a receiver of {len(self.known)} packets cannot decode {m}")
        known = {i: bit for i, bit in enumerate(self.known) if bit != _UNKNOWN}
        return _UNKNOWN not in self.known[:m], known


# ---------------------------------------------------------------------------
# Trial statistics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrialStats:
    """Outcome of one simulated block."""

    n: int
    m1: int
    m2: int
    decode_ok_1: bool
    decode_ok_2: bool
    bits_delivered_1: int
    bits_delivered_2: int
    phase_boundaries: dict[str, Optional[int]]
    empirical_erasure: dict[str, Optional[tuple[float, float]]]
    raw_slots: Optional[int] = None  # core-round raw-phase length
    backlog_1: Optional[int] = None  # virtual-queue sizes entering multicast
    backlog_2: Optional[int] = None

    @property
    def sum_rate(self) -> float:
        return (self.bits_delivered_1 + self.bits_delivered_2) / self.n


def _empirical_erasure(
    schedule: ModeSchedule, s1: np.ndarray, s2: np.ndarray
) -> dict[str, Optional[tuple[float, float]]]:
    out: dict[str, Optional[tuple[float, float]]] = {"A": None, "T": None, "B": None}
    sums = {k: [0, 0, 0] for k in out}  # erased1, erased2, slots
    for start, stop, mode in schedule.segments():
        key = mode.kind.value
        seg1 = s1[start:stop]
        seg2 = s2[start:stop]
        sums[key][0] += seg1.size - int(np.count_nonzero(seg1))
        sums[key][1] += seg2.size - int(np.count_nonzero(seg2))
        sums[key][2] += stop - start
    for key, (e1, e2, cnt) in sums.items():
        if cnt:
            out[key] = (e1 / cnt, e2 / cnt)
    return out


def _trial_stats(
    plan: SchemePlan,
    schedule: ModeSchedule,
    s1: np.ndarray,
    s2: np.ndarray,
    ok: tuple[bool, bool],
    boundaries: dict[str, Optional[int]],
    backlog: tuple[int, int],
) -> TrialStats:
    """A trial's outcome; a user's message, of the plan's size, counts whole or
    not at all.  ``raw_slots`` is where the first round's raw phases end, and
    ``backlog`` holds that round's virtual queues, which count once they end."""
    m = (plan.message_size(1), plan.message_size(2))
    rounds = plan.rounds()
    raw_slots = boundaries[rounds[0].label + "raw2"] if rounds else None
    finished = raw_slots is not None
    return TrialStats(
        n=plan.n,
        m1=m[0],
        m2=m[1],
        decode_ok_1=ok[0],
        decode_ok_2=ok[1],
        bits_delivered_1=m[0] if ok[0] else 0,
        bits_delivered_2=m[1] if ok[1] else 0,
        phase_boundaries=boundaries,
        empirical_erasure=_empirical_erasure(schedule, s1, s2),
        raw_slots=raw_slots,
        backlog_1=backlog[0] if finished else None,
        backlog_2=backlog[1] if finished else None,
    )


# ---------------------------------------------------------------------------
# Reference driver
# ---------------------------------------------------------------------------

_Links = tuple[bytearray, bytearray, list[int]]  # per link its slot states, then the heard slots


def _link_states(s1: np.ndarray, s2: np.ndarray) -> _Links:
    """The two links' 0/1 slot states as bytearrays, and the sorted list of
    slots that at least one link hears; a deadline-free run extends all three."""
    heard = np.flatnonzero((s1 | s2).view(bool)).tolist()
    return bytearray(s1.tobytes()), bytearray(s2.tobytes()), heard


def _show(
    t: int, sent: tuple[tuple[int, int], ...], bit: int, observer: Callable, tx: Transmitter
) -> None:
    """Write the status of each ``(user index, packet index)`` that slot ``t``
    sent from the receivers' stores, then show the observer the symbol: only
    the packets a slot sends can change status."""
    ids, rx, statuses = tx._pids, tx.rx, tx.statuses
    pids = []
    for u, k in sent:
        pid = ids[u][k]
        pids.append(pid)
        if rx[u].known[k] != _UNKNOWN:
            statuses[pid] = PacketStatus.DELIVERED
        elif rx[1 - u].overheard[k] != _UNKNOWN:
            statuses[pid] = PacketStatus.OVERHEARD_ONLY
        else:  # erased on both links
            statuses[pid] = PacketStatus.AWAITING
    observer(t, Action("raw" if len(sent) == 1 else "xor", tuple(pids), bit), tx)


def _raw_phase(
    engine: _Engine, t: int, stop: int, links: _Links, observer: Optional[Callable],
    tx: Transmitter,
) -> int:
    """Run ``engine``'s raw phase from slot ``t`` until it ends or the slots
    reach ``stop``; return the next slot.  RAW1 sends user 1's packets and
    RAW2 user 2's, with links, bits and receivers swapped.  The head stays
    until a receiver hears it; if its own user did not, it is queued for
    multicast.  So the loop walks the heard slots in [t, stop), one per
    packet, paired with the queue from its head.  A slot erased on both
    links changes no receiver, so an unobserved run never visits it, and an
    observed run shows each such slot, whose head turns AWAITING, before
    the next heard slot, or before returning at ``stop``."""
    u = 0 if engine.stage is Phase.RAW1 else 1
    queue, v = engine.q[u], engine.v[u]
    own, heard = links[u], links[2]
    bits = tx._bits[u]
    got, overheard = tx.rx[u].known, tx.rx[1 - u].overheard
    pos, end = engine.pos[u], len(queue)
    i = bisect_left(heard, t)
    j = bisect_left(heard, stop, i, min(len(heard), i + end - pos))
    for k, th in zip(queue[pos:], heard[i:j]):
        if observer is not None:
            for erased in range(t, th):
                _show(erased, ((u, k),), bits[k], observer, tx)
        if own[th]:
            got[k] = bits[k]
        else:
            overheard[k] = bits[k]
            v.append(k)
        if observer is not None:
            t = th + 1
            engine.pos[u] += 1
            if engine.pos[u] == end:
                engine._advance(t)
            _show(th, ((u, k),), bits[k], observer, tx)
    pos += j - i
    if pos < end:  # no slot after the last one sent is heard before stop
        if observer is not None:
            k = queue[pos]
            for erased in range(t, stop):
                _show(erased, ((u, k),), bits[k], observer, tx)
        t = stop
    else:
        t = heard[j - 1] + 1
    if observer is None:  # an observed run wrote back after each heard slot
        engine.pos[u] = pos
        if pos == end:
            engine._advance(t)
    return t


def _multicast(
    engine: _Engine, t: int, stop: int, links: _Links, observer: Optional[Callable],
    tx: Transmitter,
) -> int:
    """Run ``engine``'s multicast phase from slot ``t`` until both virtual
    queues drain or the slots reach ``stop``; return the next slot.  Each slot
    pairs the queues' heads afresh, so each queue drains at its own link's
    rate.  A queue that has emptied is padded with its most recently resolved
    packet, known to both receivers, so the other head stays decodable; if
    the other queue never held a packet, the head goes out bare.  A receiver
    resolves its own side of an XOR on arrival from the side it overheard; a
    packet's bit never changes, so this gives what resolving at the end would.
    Sides are packet indices, so a missing side is tested with ``is None``:
    index 0 is falsy."""
    s1, s2, _ = links
    v1, v2 = engine.v
    vpos1, vpos2 = engine.vpos
    end1, end2 = len(v1), len(v2)
    sent, rx = tx._bits, tx.rx
    bits1, bits2 = sent
    over1, over2 = rx[0].overheard, rx[1].overheard
    got1, got2 = rx[0].known, rx[1].known
    while (vpos1 < end1 or vpos2 < end2) and t < stop:
        heard1, heard2 = s1[t], s2[t]
        if not (heard1 or heard2) and observer is None:
            t += 1
            continue
        side1 = v1[vpos1] if vpos1 < end1 else v1[-1] if end1 else None
        side2 = v2[vpos2] if vpos2 < end2 else v2[-1] if end2 else None
        if side1 is None or side2 is None:
            # a bare head: the other receiver overheard it in the raw phase
            u, k = (0, side1) if side2 is None else (1, side2)
            bit = sent[u][k]
            if links[u][t]:
                rx[u].known[k] = bit
        else:
            bit = bits1[side1] ^ bits2[side2]
            # a side a receiver did not overhear reads _UNKNOWN, whose XOR
            # with a bit is no bit
            if heard1:
                mine = bit ^ over1[side2]
                if mine > 1:
                    raise ProtocolError("multicast symbol not resolvable")
                got1[side1] = mine
            if heard2:
                mine = bit ^ over2[side1]
                if mine > 1:
                    raise ProtocolError("multicast symbol not resolvable")
                got2[side2] = mine
        if heard1 and vpos1 < end1:
            vpos1 += 1
        if heard2 and vpos2 < end2:
            vpos2 += 1
        t += 1
        if observer is not None:
            engine.vpos[:] = vpos1, vpos2
            if vpos1 == end1 and vpos2 == end2:
                engine._advance(t)
            bare = side1 is None or side2 is None
            _show(t - 1, ((u, k),) if bare else ((0, side1), (1, side2)), bit, observer, tx)
    if observer is None:  # an observed run wrote back after each slot
        engine.vpos[:] = vpos1, vpos2
        if vpos1 == end1 and vpos2 == end2:
            engine._advance(t)
    return t


def _run_reference(
    plan: SchemePlan,
    schedule: ModeSchedule,
    s1: np.ndarray,
    s2: np.ndarray,
    bits1: np.ndarray,
    bits2: np.ndarray,
    observer: Optional[Callable],
    run_to_completion: bool,
    sampler: Optional[ChannelSampler],
) -> TrialStats:
    tx = Transmitter(plan, bits1, bits2)
    links = _link_states(s1, s2)
    horizon = len(s1)
    t = 0
    for i, spec in enumerate(tx._rounds):
        # a deadline-free run starts each round where the one before ended
        # and drains it; otherwise a round has the slots [start, limit)
        start, limit = (0, _INF) if run_to_completion else (spec.start, spec.limit)
        if t >= limit:
            continue  # the rounds before ran to this round's limit
        tx._cursor = i
        engine = tx._engines[i] or tx._open(i, t)  # a chained round opens here
        if t < start:  # the round waits for its start slot and sends nothing
            if observer is not None:
                for idle in range(t, start):
                    observer(idle, None, tx)
            t = start
        while engine.stage is not Phase.DONE and t < limit:
            if t >= horizon:  # only a deadline-free run reads past n
                if sampler is None:
                    raise ProtocolError("deadline-free runs need a channel sampler")
                if schedule.delta_b >= 1.0:
                    raise ProtocolError(
                        "a deadline-free run cannot finish: every slot past n is erased"
                    )
                ext1, ext2, ext_heard = _link_states(*sampler.slots(horizon + 1, horizon + 4097))
                links[0].extend(ext1)
                links[1].extend(ext2)
                links[2].extend([horizon + th for th in ext_heard])
                horizon += 4096
            stage, t0 = engine.stage, t
            phase = _multicast if stage is Phase.MULTICAST else _raw_phase
            t = phase(engine, t, min(limit, horizon), links, observer, tx)
            if t <= t0 and engine.stage is stage:  # the next call would start over
                raise ProtocolError(f"the {stage.value} phase made no progress from slot {t0}")
    tx._cursor = len(tx._rounds)  # every round is over

    # every known packet must match the message, whether or not its user
    # decoded; the uint8 arrays, not the transmitter's copy of them
    known = np.frombuffer(tx.rx[0].known + tx.rx[1].known, dtype=np.uint8)
    if ((known != np.concatenate((bits1, bits2))) & (known != _UNKNOWN)).any():
        raise ProtocolError("decoded bits differ from the message")
    ok = (_UNKNOWN not in tx.rx[0].known, _UNKNOWN not in tx.rx[1].known)

    first = tx._engines[0]
    return _trial_stats(
        plan, schedule, s1, s2, ok, dict(tx.boundaries), tuple(map(len, first.v))
    )


# ---------------------------------------------------------------------------
# Batched driver
# ---------------------------------------------------------------------------


class BlockOutcome(NamedTuple):
    """Per-row outcome of a block of trials that share one plan."""

    decode_ok: np.ndarray  # (2, T) bool: user u + 1 decoded in row r
    boundaries: dict[str, np.ndarray]  # (T,) phase ends; -1 where a phase never ended
    backlog: np.ndarray  # (2, T) first round's virtual queues; valid where its raw phases ended


def _hits(idx: np.ndarray, t: np.ndarray, k, stop: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(taken, end) per row: the first ``taken = min(k, hits in [t, stop))``
    slots of the sorted slot index ``idx`` from slot t on, and the slot after
    the last of them, or t where none is taken."""
    i0 = np.searchsorted(idx, t)
    taken = np.minimum(np.searchsorted(idx, stop) - i0, k)
    # clipped positions fall in rows that take nothing, which keep t
    last = idx.take(i0 + taken - 1, mode="clip") + 1 if idx.size else t
    return taken, np.where(taken > 0, last, t)


def _run_block(plan: SchemePlan, b1: np.ndarray, b2: np.ndarray) -> BlockOutcome:
    """Replay the plan's rounds in every row of (T, n) bool link states by
    jumping between resolution slots; each row matches the per-slot reference.

    Row r's slot t is r * n + t of the flattened block, so one index of the
    useful slots and one per link serve all rows, and each phase end is one
    ``_hits`` query over the rows, of the useful slots or of one link's.
    """
    rows, n = b1.shape
    decode_ok = np.ones((2, rows), dtype=bool)
    backlog = np.zeros((2, rows), dtype=np.intp)
    if plan.scheme is Scheme.NO_FEEDBACK:
        # a user decodes once each per-mode stream got as many slots as packets
        for u, b in enumerate((b1, b2)):
            for start, stop, fec in ((0, plan.n_a, plan.fec_a), (plan.n_a, n, plan.fec_b)):
                # strided sums run faster on uint8 than on bool
                got = b.view(np.uint8)[:, _nofb_slots(u + 1, start, stop)].sum(axis=1)
                decode_ok[u] &= got >= fec[u]
        return BlockOutcome(decode_ok, {}, backlog)

    # flatnonzero is several times faster on bool than on uint8 arrays
    flat1, flat2 = b1.reshape(-1), b2.reshape(-1)
    useful = np.flatnonzero(flat1 | flat2)
    links = (np.flatnonzero(flat1), np.flatnonzero(flat2))
    base = np.arange(rows, dtype=np.intp) * n
    boundaries: dict[str, np.ndarray] = {}
    mc_end = done = None
    for i, spec in enumerate(plan.rounds()):
        if spec.chained:  # starts where the previous round finished, if it did
            t, live = np.where(done, mc_end, base), done
        else:
            t, live = base + spec.start, np.ones(rows, dtype=bool)
        limit = base + spec.limit
        # raw phases: user 1's packets, then user 2's, each until somebody hears it
        resolved = []
        queues = []
        for u, m in enumerate((spec.m1, spec.m2)):
            sent, end = _hits(useful, t, m, limit)
            got = np.searchsorted(links[u], end) - np.searchsorted(links[u], t)
            resolved.append(np.where(live, got, 0))
            queues.append(sent - got)
            live = live & (sent == m)
            boundaries[spec.label + ("raw1", "raw2")[u]] = np.where(live, end - base, -1)
            t = end
        # multicast: heads re-pair each slot, so each queue drains on its own link
        mc_end, done = t, live
        for u, (m, q) in enumerate(zip((spec.m1, spec.m2), queues)):
            drained, last = _hits(links[u], t, q, limit)
            mc_end = np.maximum(mc_end, last)
            done = done & (drained == q)
            decode_ok[u] &= resolved[u] + np.where(live, drained, 0) == m
        boundaries[spec.label + "multicast"] = np.where(done, mc_end - base, -1)
        if i == 0:
            backlog[:] = queues
    return BlockOutcome(decode_ok, boundaries, backlog)


def _schedule(
    p: ModeParams, n: int, n_t: int, delta_t: float, plan: SchemePlan
) -> ModeSchedule:
    schedule = build_schedule(n, p.eta, n_t, p.delta_a, delta_t, p.delta_b)
    if plan.n != n or plan.n_a != schedule.n_a:
        raise ValueError("plan was built for a different blocklength or eta")
    return schedule


def run_block(
    p: ModeParams,
    n: int,
    n_t: int,
    delta_t: float,
    plan: SchemePlan,
    keys: np.ndarray,
) -> BlockOutcome:
    """One trial per row of the (T, 2) uint64 Philox ``keys``, in one block.

    Row r is ``run_trial(..., seed)`` for the seed whose first child has the
    ``channel_key`` ``keys[r]``: ``run_trial`` seeds the channel with that child.
    """
    schedule = _schedule(p, n, n_t, delta_t, plan)
    block = sample_block(schedule, keys)
    return _run_block(plan, block[0], block[1])


# ---------------------------------------------------------------------------
# Trial entry point
# ---------------------------------------------------------------------------


def run_trial(
    p: ModeParams,
    n: int,
    n_t: int,
    delta_t: float,
    plan: SchemePlan,
    seed: int | SeedSequence,
    *,
    channel: Optional[tuple[np.ndarray, np.ndarray]] = None,
    observer: Optional[Callable] = None,
    run_to_completion: bool = False,
    driver: str = "auto",
) -> TrialStats:
    """Simulate one block with unit-delay feedback.

    ``channel`` injects explicit 0/1 slot-state arrays (deterministic tests);
    otherwise slots come from a counter-addressable sampler seeded by ``seed``.
    ``observer(t, action, transmitter)`` is called once per slot after feedback
    and forces the per-slot reference driver, as does ``run_to_completion``.
    The no-feedback baseline has no per-slot driver, so with it an observer,
    ``run_to_completion`` or ``driver="reference"`` raises.
    """
    if driver not in ("auto", "reference", "batched"):
        raise ValueError(f"unknown driver {driver!r}")
    needs_reference = observer is not None or run_to_completion
    if driver == "batched" and needs_reference:
        raise ValueError("observers and deadline-free runs need the reference driver")
    if run_to_completion and channel is not None:
        raise ValueError("deadline-free runs cannot use an injected channel")
    if run_to_completion and plan.scheme is Scheme.NO_FEEDBACK:
        raise ProtocolError("the no-feedback baseline has no queues to drain")
    if plan.scheme is Scheme.NO_FEEDBACK and (driver == "reference" or observer is not None):
        raise ValueError("the no-feedback baseline has no per-slot driver to run or observe")

    schedule = _schedule(p, n, n_t, delta_t, plan)
    ss = seed if isinstance(seed, SeedSequence) else SeedSequence(seed)
    channel_ss, msg_ss = ss.spawn(2)
    sampler = None
    if channel is not None:
        s1, s2 = (np.asarray(s) for s in channel)
        if s1.shape != (n,) or s2.shape != (n,):
            raise ValueError("injected channel arrays must be 1-D of length n")
        if not (np.isin(s1, (0, 1)).all() and np.isin(s2, (0, 1)).all()):
            raise ValueError("injected channel arrays must hold only 0 and 1")
        s1, s2 = np.asarray(s1, dtype=np.uint8), np.asarray(s2, dtype=np.uint8)
    else:
        sampler = ChannelSampler(schedule, channel_ss)
        s1, s2 = sampler.slots(1, n + 1)

    if driver == "reference" or needs_reference:
        rng = default_rng(msg_ss)
        bits1 = rng.integers(0, 2, size=plan.message_size(1), dtype=np.uint8)
        bits2 = rng.integers(0, 2, size=plan.message_size(2), dtype=np.uint8)
        return _run_reference(
            plan, schedule, s1, s2, bits1, bits2, observer, run_to_completion, sampler
        )
    out = _run_block(plan, s1.view(bool)[None], s2.view(bool)[None])
    boundaries = {k: int(v[0]) if v[0] >= 0 else None for k, v in out.boundaries.items()}
    return _trial_stats(
        plan, schedule, s1, s2, tuple(out.decode_ok[:, 0].tolist()), boundaries,
        tuple(out.backlog[:, 0].tolist()),
    )
