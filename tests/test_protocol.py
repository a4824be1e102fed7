import dataclasses
import gc
import math

import numpy as np
import pytest

from bpecsim import protocol
from bpecsim.channel import ChannelSampler, build_schedule, floor_index
from bpecsim.montecarlo import trial_seed
from bpecsim.protocol import (
    Action,
    PacketId,
    PacketStatus,
    Phase,
    ProtocolError,
    Receiver,
    Scheme,
    SchemePlan,
    Transmitter,
    _PACKET_IDS,
    _Engine,
    _link_states,
    _multicast,
    _nofb_share,
    _nofb_slots,
    _packet_ids,
    _raw_phase,
    _report_erased,
    _run_block,
    _run_reference,
    plan_scheme,
    run_trial,
)
from bpecsim.rates import ModeParams, UnsupportedParametersError

CAPACITY = ModeParams(0.75, 0.0, 32 / 35)
CLIPPED = ModeParams(0.75, 0.0, 1 / 6)


def inject(seq):
    s1 = np.array([a for a, _ in seq], dtype=np.uint8)
    s2 = np.array([b for _, b in seq], dtype=np.uint8)
    return s1, s2


def micro_plan(n, m1=1, m2=1, tail=0):
    return SchemePlan(
        scheme=Scheme.INTER_MODAL,
        n=n,
        n_a=n,
        m1=m1,
        m2=m2,
        alpha=1.0,
        guard=0,
        tail1=tail,
        tail2=tail,
    )


# ---------------------------------------------------------------------------
# planning
# ---------------------------------------------------------------------------


def test_plan_capacity_example_m_is_n_over_5():
    plan = plan_scheme(CAPACITY, 35_000, Scheme.INTER_MODAL, 0.0)
    assert plan.m1 == plan.m2 == 7_000
    assert abs(plan.alpha - 32 / 35) < 1e-12
    assert plan.guard == 0


def test_plan_guard_shrinks_core_by_guard_order():
    n = 50_000
    free = plan_scheme(CAPACITY, n, Scheme.INTER_MODAL, 0.0)
    guarded = plan_scheme(CAPACITY, n, Scheme.INTER_MODAL, 3.0)
    assert guarded.m1 < free.m1
    guard = math.ceil(3 * n ** (2 / 3))
    expected_drop = (1 - 0.75**2) * guard / 2
    assert abs((free.m1 - guarded.m1) - expected_drop) <= 1.0


def test_plan_clipped_regime_alpha_and_density():
    n = 1_000_000
    plan = plan_scheme(CLIPPED, n, Scheme.INTER_MODAL, 0.0)
    assert abs(plan.alpha - 1 / 6) < 1e-12
    assert abs(plan.m1 / n - 7 / 192) < 1e-4
    # most of mode B is refilled with a fresh round in this regime
    assert plan.tail1 > 0.35 * n


def test_plan_rejects_unsupported():
    with pytest.raises(UnsupportedParametersError):
        plan_scheme(ModeParams(0.2, 0.5, 0.5), 1000, Scheme.INTER_MODAL, 0.0)
    with pytest.raises(UnsupportedParametersError):
        plan_scheme(ModeParams(1.0, 0.5, 0.5), 1000, Scheme.INTER_MODAL, 0.0)
    with pytest.raises(ValueError):
        plan_scheme(CAPACITY, 0, Scheme.INTER_MODAL, 0.0)
    with pytest.raises(ValueError):
        plan_scheme(CAPACITY, 1000, Scheme.INTER_MODAL, -1.0)
    for scheme in Scheme:
        for coeff in (math.inf, math.nan):
            with pytest.raises(ValueError, match="guard coefficient"):
                plan_scheme(CAPACITY, 1000, scheme, coeff)


def test_plan_rejects_a_guard_that_overflows():
    # a finite coefficient whose guard, coeff * n^(2/3) slots, is not finite
    for scheme in Scheme:
        with pytest.raises(ValueError, match="guard coefficient"):
            plan_scheme(CAPACITY, 100, scheme, 1e308)
    assert plan_scheme(CAPACITY, 100, Scheme.INTRA_MODAL, 1e300).run_a == 0


def test_plan_intramodal_splits_runs():
    p = ModeParams(0.0, 0.0, 0.5)
    plan = plan_scheme(p, 100, Scheme.INTRA_MODAL, 0.0)
    assert plan.run_a == plan.run_b == 25
    assert plan.m1 == plan.m2 == 50


def test_plan_nofeedback_sizes():
    p = ModeParams(0.5, 0.0, 0.5)
    plan = plan_scheme(p, 1000, Scheme.NO_FEEDBACK, 0.0)
    assert plan.fec_a == (125, 125)
    assert plan.fec_b == (250, 250)
    assert plan.m1 == plan.m2 == 375


def test_nofb_share_counts_the_slots_of_nofb_slots():
    for user in (1, 2):
        for stop in range(65):
            for start in range(stop + 1):
                expected = len(range(stop)[_nofb_slots(user, start, stop)])
                assert _nofb_share(user, start, stop) == expected, (user, start, stop)


# ---------------------------------------------------------------------------
# micro-traces and state-machine contracts
# ---------------------------------------------------------------------------


def test_micro_trace_four_slots():
    # m = 1 per user; slots (0,1),(1,0),(1,0),(0,1) yield actions
    # a1, b1, a1^b1, a1^b1 and both users decode at t = 4
    actions = []
    stats = run_trial(
        ModeParams(0.5, 0.0, 1.0),
        4,
        0,
        0.0,
        micro_plan(4),
        seed=1,
        channel=inject([(0, 1), (1, 0), (1, 0), (0, 1)]),
        observer=lambda t, a, tx: actions.append(a),
    )
    a1, b1 = PacketId(1, 0), PacketId(2, 0)
    kinds_pids = [(a.kind, a.pids) for a in actions]
    assert kinds_pids == [
        ("raw", (a1,)),
        ("raw", (b1,)),
        ("xor", (a1, b1)),
        ("xor", (a1, b1)),
    ]
    assert stats.decode_ok_1 and stats.decode_ok_2
    assert stats.bits_delivered_1 == stats.bits_delivered_2 == 1
    assert stats.phase_boundaries == {"raw1": 1, "raw2": 2, "multicast": 4}


def run_with_a1_flipped(monkeypatch, slots, m1=1, **kwargs):
    """The micro plan with ``m1`` packets for user 1 over the injected
    ``slots``, with a1 flipped in the transmitter's bit list after the
    message is drawn."""
    init = Transmitter.__init__

    def flip_a1(tx, *args, **kw):
        init(tx, *args, **kw)
        tx._bits[0][0] ^= 1

    monkeypatch.setattr(Transmitter, "__init__", flip_a1)
    n = len(slots)
    return run_trial(
        ModeParams(0.5, 0.0, 1.0), n, 0, 0.0, micro_plan(n, m1=m1), seed=1,
        channel=inject(slots), driver="reference", **kwargs,
    )


# user 1 misses slot 0's uncoded a1 and reaches it only through slot 2's XOR
MICRO_TRACE = [(0, 1), (1, 0), (1, 0), (0, 1)]


def test_reference_raises_when_a_decoded_bit_differs(monkeypatch):
    # the observed run of the test below: the XOR its observer is shown
    # carries the flipped bit, and user 1 resolves a1 wrong from it
    sent = []
    with pytest.raises(ProtocolError, match="decoded bits differ from the message"):
        run_with_a1_flipped(monkeypatch, MICRO_TRACE, observer=lambda t, a, tx: sent.append(a))
    a1, b1 = PacketId(1, 0), PacketId(2, 0)
    assert [(a.kind, a.pids) for a in sent] == [
        ("raw", (a1,)), ("raw", (b1,)), ("xor", (a1, b1)), ("xor", (a1, b1)),
    ]


def test_unobserved_reference_raises_when_a_multicast_bit_differs(monkeypatch):
    # the micro trace with a1 flipped in the transmitter's bit list: user 1
    # resolves slot 2's XOR on arrival to the flipped bit
    with pytest.raises(ProtocolError, match="decoded bits differ from the message"):
        run_with_a1_flipped(monkeypatch, MICRO_TRACE)


@pytest.mark.parametrize("observed", [False, True])
def test_reference_raises_when_an_undecoded_message_holds_a_wrong_bit(monkeypatch, observed):
    # a1 and a2 are overheard only by user 2, and b1 only by user 1; slot 3's
    # XOR a1 ^ b1 reaches user 1, who resolves a1 wrong but never gets a2
    slots = [(0, 1), (0, 1), (1, 0), (1, 0)]
    clean = run_trial(
        ModeParams(0.5, 0.0, 1.0), 4, 0, 0.0, micro_plan(4, m1=2), seed=1,
        channel=inject(slots), driver="reference",
    )
    assert not clean.decode_ok_1
    observer = (lambda t, a, tx: None) if observed else None
    with pytest.raises(ProtocolError, match="decoded bits differ from the message"):
        run_with_a1_flipped(monkeypatch, slots, m1=2, observer=observer)


def test_reference_raises_when_a_raw_phase_bit_differs(monkeypatch):
    # slot 0 sends a1 uncoded and user 1 hears it, but the transmitter's bit
    # list holds a1 flipped, so user 1 decodes a1 wrong
    with pytest.raises(ProtocolError, match="decoded bits differ from the message"):
        run_with_a1_flipped(monkeypatch, [(1, 0), (0, 1)])


def test_raw_retransmits_on_double_erasure():
    actions = []
    stats = run_trial(
        ModeParams(0.5, 0.0, 1.0),
        4,
        0,
        0.0,
        micro_plan(4),
        seed=1,
        channel=inject([(0, 0), (1, 0), (0, 1), (1, 1)]),
        observer=lambda t, a, tx: actions.append(a),
    )
    a1, b1 = PacketId(1, 0), PacketId(2, 0)
    assert [(a.kind, a.pids) for a in actions[:2]] == [("raw", (a1,)), ("raw", (a1,))]
    assert stats.decode_ok_1 and stats.decode_ok_2


def test_unpaired_multicast_sends_bare_head():
    # user 2's packet is delivered directly, so only v_{1|2} is populated and
    # there is no resolved partner to pad with: the head goes out uncoded
    actions = []
    stats = run_trial(
        ModeParams(0.5, 0.0, 1.0),
        3,
        0,
        0.0,
        micro_plan(3),
        seed=1,
        channel=inject([(0, 1), (0, 1), (1, 0)]),
        observer=lambda t, a, tx: actions.append(a),
    )
    a1, b1 = PacketId(1, 0), PacketId(2, 0)
    assert [(a.kind, a.pids) for a in actions] == [
        ("raw", (a1,)),
        ("raw", (b1,)),
        ("raw", (a1,)),
    ]
    assert stats.decode_ok_1 and stats.decode_ok_2


def test_xor_feedback_dequeues_only_delivered_side():
    checkpoints = []

    def observer(t, action, tx):
        checkpoints.append((t, list(tx.v_1_given_2), list(tx.v_2_given_1)))

    run_trial(
        ModeParams(0.5, 0.0, 1.0),
        5,
        0,
        0.0,
        micro_plan(5),
        seed=1,
        channel=inject([(0, 1), (1, 0), (1, 0), (0, 0), (0, 1)]),
        observer=observer,
    )
    a1, b1 = PacketId(1, 0), PacketId(2, 0)
    # after slot 3's xor with (s1, s2) = (1, 0): a1 resolved, b1 still queued
    assert checkpoints[2] == (2, [], [b1])


def run_phases(engine, t, s1, s2, bits, rx, observer=None):
    """Run ``engine``'s phase loops from slot ``t`` over the 0/1 link states
    ``s1``/``s2``, picking each by the stage as the reference loop does, until
    the round is DONE or the slots run out; return the next slot."""
    links = _link_states(s1, s2)
    while engine.stage is not Phase.DONE and t < len(s1):
        phase = _multicast if engine.stage is Phase.MULTICAST else _raw_phase
        t = phase(engine, t, len(s1), links, bits, rx, observer, None)
    return t


def settle(tx):
    """Run the transmitter's rounds in order through the phase loops, with
    every slot heard on both links, until every round is DONE."""
    heard = np.ones(len(tx.statuses), dtype=np.uint8)  # every packet is delivered in its raw phase
    rx = (Receiver(), Receiver())
    t = 0
    for i in range(len(tx._rounds)):
        engine = tx._engines[i] or tx._open(i, t)
        t = run_phases(engine, t, heard, heard, tx._bits, rx)


def message(plan, seed):
    """The message bits ``run_trial`` draws from the second child of its seed."""
    msg = np.random.default_rng(np.random.SeedSequence(seed).spawn(2)[1])
    bits1 = msg.integers(0, 2, size=plan.message_size(1), dtype=np.uint8)
    bits2 = msg.integers(0, 2, size=plan.message_size(2), dtype=np.uint8)
    return bits1, bits2


def observe_erased_slots(p, plan, seed, **kwargs):
    """Run an observed reference trial and check it after each slot erased on
    both links: no status moves but the sent head's, which is AWAITING in a
    raw phase, the phase and both virtual queues stay, and the next slot sends
    the same symbol unless it is a round's start or limit.  Return the
    ``(t, action, phase)`` log, the ``(t, phase)`` of each erased slot (phase
    None while idle), the last snapshot's virtual queues and the stats, which
    an unobserved run must give too."""
    fresh = Transmitter(plan, *message(plan, seed))
    snaps = [(None, dict(fresh.statuses), fresh.phase, [], [])]

    def snapshot(t, action, tx):
        assert t == len(snaps) - 1
        snaps.append((action, dict(tx.statuses), tx.phase, tx.v_1_given_2, tx.v_2_given_1))

    stats = run_trial(p, plan.n, 0, 0.0, plan, seed=seed, observer=snapshot, **kwargs)
    assert run_trial(p, plan.n, 0, 0.0, plan, seed=seed, driver="reference", **kwargs) == stats
    if "channel" in kwargs:
        s1, s2 = kwargs["channel"]
    else:
        s1, s2 = ChannelSampler(
            build_schedule(plan.n, p.eta, 0, p.delta_a, 0.0, p.delta_b),
            np.random.SeedSequence(seed).spawn(2)[0],
        ).slots(1, len(snaps))
    edges = set() if kwargs.get("run_to_completion") else {
        edge for spec in plan.rounds() if not spec.chained for edge in (spec.start, spec.limit)
    }
    erased = []
    for t, (before, after) in enumerate(zip(snaps, snaps[1:])):
        if s1[t] or s2[t]:
            continue
        action, statuses = after[0], dict(before[1])
        if action is not None and action.kind == "raw":
            head = action.pids[0]
            if statuses[head] in (PacketStatus.FRESH, PacketStatus.AWAITING):
                statuses[head] = PacketStatus.AWAITING
        assert (statuses, *before[2:]) == after[1:], t
        if t + 1 not in edges:
            assert t + 2 < len(snaps) and snaps[t + 2][0] == action, t
        erased.append((t, None if action is None else after[2]))
    log = [(t, snap[0], snap[2]) for t, snap in enumerate(snaps[1:])]
    return log, erased, snaps[-1][3:], stats


# intra-modal, two packets per user and round; round A ends at slot 8 and
# round B waits for its start slot n_a = 10.  Slots erased on both links fall
# in every phase of both rounds and while round B waits.
WAIT_FOR_B = [
    (0, 0), (0, 1), (1, 0),  # round A raw1: a0 overheard by user 2, a1 delivered
    (0, 0), (1, 0), (0, 1),  # raw2: b0 overheard by user 1, b1 delivered
    (0, 0), (1, 1),  # multicast a0 ^ b0 resolves both
    (0, 0), (1, 1),  # idle until round B's start
    (0, 0), (1, 0), (0, 0), (1, 1),  # round B raw1
    (0, 1), (1, 0),  # raw2: b3 overheard by user 1
    (0, 0), (1, 1),  # bare b3 resolves it
    (1, 1), (1, 1),
]


def test_slot_erased_on_both_links_changes_nothing():
    p = ModeParams(0.5, 0.0, 0.5)
    plan = SchemePlan(
        scheme=Scheme.INTRA_MODAL, n=20, n_a=10, m1=4, m2=4, alpha=0.0, guard=0,
        run_a=2, run_b=2,
    )
    log, erased, _, stats = observe_erased_slots(p, plan, 3, channel=inject(WAIT_FOR_B))
    assert erased == [
        (0, Phase.RAW1), (3, Phase.RAW2), (6, Phase.MULTICAST), (8, None),
        (10, Phase.RAW1), (12, Phase.RAW1), (16, Phase.MULTICAST),
    ]
    assert [t for t, action, _ in log if action is None] == [8, 9]
    assert stats.phase_boundaries["a_multicast"] == 8
    assert stats.phase_boundaries["b_multicast"] == 18


def test_slot_erased_on_both_links_changes_nothing_at_capacity():
    # the paper's capacity point: most mode-A slots are erased on both links
    n = 700
    plan = plan_scheme(CAPACITY, n, Scheme.INTER_MODAL, 0.0)
    rng = np.random.default_rng(5)
    s1, s2 = (rng.random((2, n)) >= np.where(np.arange(n) < plan.n_a, 0.75, 0.0)).astype(np.uint8)
    _, erased, _, _ = observe_erased_slots(CAPACITY, plan, 9, channel=(s1, s2))
    assert {Phase.RAW1, Phase.RAW2, Phase.MULTICAST} <= {phase for _, phase in erased}


def test_slot_erased_on_both_links_changes_nothing_when_round_a_is_cut_off():
    # round A fills both virtual queues, resolves one packet and then hears
    # nothing until its limit n_a = 20; round B runs in a clean mode B
    p = ModeParams(0.75, 0.0, 0.5)
    n = 40
    plan = plan_scheme(p, n, Scheme.INTRA_MODAL, 0.0)
    assert (plan.run_a, plan.run_b) == (3, 10)
    head = [(0, 1), (0, 1), (1, 0), (1, 0), (1, 0), (0, 1), (1, 0)]
    channel = inject(head + [(0, 0)] * (20 - len(head)) + [(1, 1)] * 20)
    log, erased, waiting, stats = observe_erased_slots(p, plan, 4, channel=channel)
    assert [t for t, _ in erased] == list(range(len(head), 20))
    assert stats.phase_boundaries["a_multicast"] is None
    assert stats.phase_boundaries["b_raw1"] == 30
    assert (stats.backlog_1, stats.backlog_2) == (2, 2)
    # round A's leftover queues outlive its cut-off
    assert waiting == ([PacketId(1, 1)], [PacketId(2, 0), PacketId(2, 1)])
    assert log[20][1].pids == (PacketId(1, 3),)
    # the same plan where mode A erases at random and mode B is clean
    rng = np.random.default_rng(11)
    s1, s2 = (rng.random((2, n)) > 0.75).astype(np.uint8)
    s1[20:] = s2[20:] = 1
    _, erased, _, stats = observe_erased_slots(p, plan, 7, channel=(s1, s2))
    assert erased
    assert stats.phase_boundaries["a_multicast"] is None
    assert stats.phase_boundaries["b_multicast"] is not None


@pytest.mark.parametrize(
    "head, ends",
    [
        ([(0, 0)] * 6, [None, None, None]),
        ([(1, 0), (1, 0)] + [(0, 0)] * 4, [2, None, None]),
        ([(0, 1), (0, 1), (1, 0), (1, 0), (1, 0), (0, 0)], [2, 4, None]),
    ],
    ids=["raw1", "raw2", "multicast"],
)
def test_round_limit_cuts_a_phase(head, ends):
    # intra, two packets per user and round: round A's limit n_a = 6 stops
    # the loop of the phase it cuts, and round B runs on a clean channel
    p = ModeParams(0.5, 0.0, 0.5)
    plan = SchemePlan(
        scheme=Scheme.INTRA_MODAL, n=12, n_a=6, m1=4, m2=4, alpha=0.0, guard=0,
        run_a=2, run_b=2,
    )
    channel = inject(head + [(1, 1)] * 6)
    _, _, _, stats = observe_erased_slots(p, plan, 0, channel=channel)
    assert stats == run_trial(p, plan.n, 0, 0.0, plan, 0, channel=channel, driver="batched")
    assert [stats.phase_boundaries["a_" + key] for key in ("raw1", "raw2", "multicast")] == ends
    assert stats.phase_boundaries["b_multicast"] == 10


def test_slot_erased_on_both_links_changes_nothing_when_the_tail_opens():
    # the core's multicast ends with slot 2's feedback; the chained tail
    # sends its first packet in slot 3
    p = ModeParams(0.5, 0.0, 1.0)
    plan = micro_plan(8, tail=1)
    channel = inject([(0, 1), (1, 0), (1, 1), (0, 0), (1, 1), (1, 1), (0, 0), (0, 0)])
    log, erased, _, stats = observe_erased_slots(p, plan, 2, channel=channel)
    assert erased == [(3, Phase.FRESH_TAIL)]
    assert stats.phase_boundaries["multicast"] == 3
    assert stats.phase_boundaries["tail_multicast"] == 6
    assert [(t, a.pids, phase) for t, a, phase in log[2:5]] == [
        (2, (PacketId(1, 0), PacketId(2, 0)), Phase.FRESH_TAIL),
        (3, (PacketId(1, 1),), Phase.FRESH_TAIL),
        (4, (PacketId(1, 1),), Phase.FRESH_TAIL),
    ]


def test_slot_erased_on_both_links_changes_nothing_without_deadlines():
    # windows (0, inf): round A runs past n_a = 30, round B opens in the slot
    # after it ends, and the run goes on past n = 60
    p = ModeParams(0.6, 0.2, 0.5)
    n = 60
    plan = plan_scheme(p, n, Scheme.INTRA_MODAL, 0.0)
    log, erased, _, stats = observe_erased_slots(p, plan, 1, run_to_completion=True)
    end_a = stats.phase_boundaries["a_multicast"]
    assert plan.n_a < end_a and len(log) > n
    assert {t < end_a for t, _ in erased} == {True, False}  # in both rounds
    assert log[end_a][1].pids == (PacketId(1, plan.run_a),)
    assert log[-1][2] is Phase.DONE
    assert len(log) == stats.phase_boundaries["b_multicast"]


# A per-slot rule keeps the id of the method that first applied it, so its case
# keeps its name when the rule moves into another function
@pytest.mark.parametrize(
    "fn",
    [
        pytest.param(_run_reference, id="_run_reference"),
        pytest.param(_Engine._advance, id="_Engine._advance"),
        pytest.param(_raw_phase, id="Receiver._record_raw"),  # raw stores
        pytest.param(_raw_phase, id="_Engine.apply_feedback"),  # raw statuses
        pytest.param(_multicast, id="Receiver._record_xor"),  # XOR resolution
        pytest.param(_multicast, id="_Engine._heads"),  # pad and bare heads
        pytest.param(_report_erased, id="_report_erased"),  # observed erased raw slots
    ],
)
def test_per_slot_methods_read_no_enum_class(fn):
    # CPython 3.10 and 3.11 take about ten times a global read for an Enum
    # member lookup, so the per-slot path reads the members from module constants
    assert not {"Phase", "PacketStatus"} & set(fn.__code__.co_names)


def test_reference_builds_namedtuple_instances():
    plan = plan_scheme(CAPACITY, 400, Scheme.INTER_MODAL, 1.0)
    sent = []
    keys = []

    def record(t, action, tx):
        if action is not None:
            sent.append(action)
        if not keys:
            keys.extend(tx.statuses)

    run_trial(CAPACITY, plan.n, 0, 0.0, plan, seed=5, observer=record)
    assert sent and keys
    assert all(type(action) is Action for action in sent)
    assert all(type(pid) is PacketId for action in sent for pid in action.pids)
    assert all(type(pid) is PacketId for pid in keys)


def record_new(monkeypatch):
    """Record the class of each object the package builds with ``protocol._new``."""
    built = []
    new = protocol._new

    def recording(cls, args):
        built.append(cls)
        return new(cls, args)

    monkeypatch.setattr(protocol, "_new", recording)
    return built


def observed_and_unobserved(monkeypatch, plan):
    """The capacity point at n = 1e4, seed 1: the observed run's actions, then
    the ``_new`` calls of the unobserved run, whose stats must equal the
    observed and the batched runs' stats."""
    built = record_new(monkeypatch)
    actions = []
    observed = run_trial(
        CAPACITY, plan.n, 0, 0.0, plan, 1, observer=lambda t, a, tx: actions.append(a)
    )
    assert Action in built
    built.clear()  # the observed run interned the plan's packet ids
    unobserved = run_trial(CAPACITY, plan.n, 0, 0.0, plan, 1, driver="reference")
    assert unobserved == observed == run_trial(CAPACITY, plan.n, 0, 0.0, plan, 1, driver="batched")
    return actions, built


def test_unobserved_reference_skips_slots_before_a_round_starts(monkeypatch):
    # intra at the capacity point: round B waits for its start slot n_a
    plan = plan_scheme(CAPACITY, 10_000, Scheme.INTRA_MODAL, 3.0)
    actions, built = observed_and_unobserved(monkeypatch, plan)
    assert built == []
    idle = [t for t, action in enumerate(actions) if action is None]
    assert idle and idle[-1] == plan.n_a - 1  # the observer sees the idle slots


@pytest.mark.parametrize("scheme", [Scheme.INTER_MODAL, Scheme.INTRA_MODAL])
def test_unobserved_reference_builds_no_raw_phase_action(monkeypatch, scheme):
    # unobserved, no slot builds an Action: the loop reads the head packet,
    # or the multicast pair, itself, and feedback follows in the same slot
    plan = plan_scheme(CAPACITY, 10_000, scheme, 3.0)
    actions, built = observed_and_unobserved(monkeypatch, plan)
    assert built == []
    assert {action.kind for action in actions if action is not None} == {"raw", "xor"}


def test_transmitters_share_packet_ids_but_not_statuses():
    plan = plan_scheme(CAPACITY, 400, Scheme.INTER_MODAL, 1.0)
    bits = message(plan, 6)
    a, b = Transmitter(plan, *bits), Transmitter(plan, *bits)
    assert list(a.statuses) == list(b.statuses)
    assert all(x is y for x, y in zip(a.statuses, b.statuses))
    assert a.statuses is not b.statuses
    fresh = [PacketStatus.FRESH] * (plan.message_size(1) + plan.message_size(2))
    assert list(a.statuses.values()) == list(b.statuses.values()) == fresh
    settle(a)
    assert set(a.statuses.values()) == {PacketStatus.DELIVERED}
    assert a.phase is Phase.DONE
    assert list(b.statuses.values()) == fresh


def test_packet_ids_answer_long_short_long_requests():
    def expected(user, m):
        return [PacketId(user, i) for i in range(m)]

    # past the longest lists interned so far, so each user's list grows here
    base = {u: len(_PACKET_IDS.get(u, [])) for u in (1, 2)}
    sizes = {1: (base[1] + 70, 3, base[1] + 160), 2: (base[2] + 20, 0, base[2] + 45)}
    earlier = {}
    for step in range(3):
        for user, steps in sizes.items():
            m = steps[step]
            ids = _packet_ids(user, m)
            assert ids == expected(user, m)
            assert all(type(pid) is PacketId for pid in ids)
            if step == 0:
                earlier[user] = ids
    for user, ids in earlier.items():
        # a later, longer request leaves a list returned before unchanged
        assert ids == expected(user, sizes[user][0])
        assert all(x is y for x, y in zip(ids, _packet_ids(user, sizes[user][2])))


def test_second_reference_trial_builds_no_packet_ids():
    plan = plan_scheme(CAPACITY, 1000, Scheme.INTER_MODAL, 1.0)

    def live_ids():
        gc.collect()
        return sum(type(o) is PacketId for o in gc.get_objects())

    run_trial(CAPACITY, plan.n, 0, 0.0, plan, 1, driver="reference")
    after_first = live_ids()
    during = []

    def count_once(t, action, tx):
        if not during:
            during.append(live_ids())

    run_trial(CAPACITY, plan.n, 0, 0.0, plan, 2, observer=count_once)
    # the second trial's transmitter holds the first trial's ids
    assert during == [after_first]
    assert live_ids() == after_first


# ---------------------------------------------------------------------------
# one round's engine on packet lists no plan produces today
# ---------------------------------------------------------------------------

F, W, O, D = (
    PacketStatus.FRESH,
    PacketStatus.AWAITING,
    PacketStatus.OVERHEARD_ONLY,
    PacketStatus.DELIVERED,
)


def new_engine(pkts1, pkts2, start_t, label):
    statuses = dict.fromkeys(pkts1 + pkts2, F)
    boundaries = {label + phase: None for phase in ("raw1", "raw2", "multicast")}
    return _Engine(pkts1, pkts2, statuses, start_t, label, boundaries)


def drive_engine(engine, bits, slots, start_t, rx=None):
    """Run ``engine``'s phase loops over ``slots`` from ``start_t`` with an
    observer, as an observed reference run does; return per slot the symbol
    sent, then the stage, statuses, waiting virtual queues and boundaries
    after it."""
    s1, s2 = inject([(0, 0)] * start_t + slots)
    log = []

    def record(t, action, tx):
        log.append((
            action,
            engine.stage,
            list(engine.statuses.values()),
            engine.v[0][engine.vpos[0] :],
            engine.v[1][engine.vpos[1] :],
            list(engine.boundaries.values()),
        ))

    run_phases(engine, start_t, s1, s2, bits, rx or (Receiver(), Receiver()), record)
    return log


def test_engine_with_unequal_packet_lists():
    # three packets for user 1 and one for user 2, from slot 5; the bits of
    # the two users differ at the indices sent, so a swapped list shows
    a1, a2, a3, b2 = PacketId(1, 1), PacketId(1, 2), PacketId(1, 3), PacketId(2, 2)
    engine = new_engine([a1, a2, a3], [b2], 5, "x_")
    assert engine.stage is Phase.RAW1
    assert engine.boundaries == {"x_raw1": None, "x_raw2": None, "x_multicast": None}
    bits = ([0, 1, 0, 1], [1, 1, 1, 0])
    slots = [(0, 0), (0, 1), (1, 0), (0, 1), (1, 0), (1, 1), (0, 1), (1, 0)]
    R1, R2, MC, DONE = Phase.RAW1, Phase.RAW2, Phase.MULTICAST, Phase.DONE
    none3 = [None, None, None]
    assert drive_engine(engine, bits, slots, 5) == [
        (("raw", (a1,), 1), R1, [W, F, F, F], [], [], none3),  # erased on both
        (("raw", (a1,), 1), R1, [O, F, F, F], [a1], [], none3),
        (("raw", (a2,), 0), R1, [O, D, F, F], [a1], [], none3),
        (("raw", (a3,), 1), R2, [O, D, O, F], [a1, a3], [], [9, None, None]),
        (("raw", (b2,), 1), MC, [O, D, O, O], [a1, a3], [b2], [9, 10, None]),
        (("xor", (a1, b2), 0), MC, [D, D, O, D], [a3], [], [9, 10, None]),
        # user 2's queue is empty: its side repeats b2, and its ACK moves nothing
        (("xor", (a3, b2), 0), MC, [D, D, O, D], [a3], [], [9, 10, None]),
        (("xor", (a3, b2), 0), DONE, [D, D, D, D], [], [], [9, 10, 13]),
    ]


def test_engine_with_no_packets_for_user_1():
    # RAW1 ends in the start slot; multicast has only user 2's queue, so its
    # head goes out uncoded
    b0, b1 = PacketId(2, 0), PacketId(2, 1)
    engine = new_engine([], [b0, b1], 0, "")
    assert engine.stage is Phase.RAW2
    assert engine.boundaries == {"raw1": 0, "raw2": None, "multicast": None}
    bits = ([], [1, 0])
    slots = [(1, 0), (0, 1), (1, 0), (0, 0), (0, 1)]
    R2, MC, DONE = Phase.RAW2, Phase.MULTICAST, Phase.DONE
    assert drive_engine(engine, bits, slots, 0) == [
        (("raw", (b0,), 1), R2, [O, F], [], [b0], [0, None, None]),
        (("raw", (b1,), 0), MC, [O, D], [], [b0], [0, 2, None]),
        (("raw", (b0,), 1), MC, [O, D], [], [b0], [0, 2, None]),  # user 1's ACK
        (("raw", (b0,), 1), MC, [O, D], [], [b0], [0, 2, None]),  # erased on both
        (("raw", (b0,), 1), DONE, [D, D], [], [], [0, 2, 5]),
    ]


def test_engine_with_no_packets_ends_every_stage_at_its_start():
    engine = new_engine([], [], 7, "b_")
    assert engine.stage is Phase.DONE
    assert engine.boundaries == {"b_raw1": 7, "b_raw2": 7, "b_multicast": 7}
    assert engine.statuses == {} and engine.v == ([], [])


def test_receiver_observe_and_decode():
    # user 2 overhears a5 and user 1 overhears b2 in the raw phases; the XOR
    # a5 ^ b2 (bit 0) reaches user 1 only, who resolves a5 on arrival
    b2 = PacketId(2, 1)
    a5 = PacketId(1, 4)
    rx = (Receiver(), Receiver())
    slots = [(0, 1), (1, 0), (1, 0)]
    drive_engine(new_engine([a5], [b2], 0, ""), ([0, 0, 0, 0, 1], [0, 1]), slots, 0, rx)
    assert rx[0].overheard[b2] == 1
    ok, recovered = rx[0].decode(5)
    assert not ok  # only a5 of the five own packets is known
    assert recovered[4] == 1  # 0 ^ overheard 1
    rx2 = (Receiver(), Receiver())
    own = [PacketId(1, i) for i in range(3)]
    drive_engine(new_engine(own, [], 0, ""), ([1, 1, 1], []), [(1, 0)] * 3, 0, rx2)
    ok2, rec2 = rx2[0].decode(3)
    assert ok2 and rec2 == {0: 1, 1: 1, 2: 1}


def test_receiver_rejects_unresolvable_multicast():
    # the raw phases fill both virtual queues, then an XOR reaches receivers
    # that know neither the own packet nor the overheard partner
    engine = new_engine([PacketId(1, 0)], [PacketId(2, 0)], 0, "")
    bits = ([0], [1])
    drive_engine(engine, bits, [(0, 1), (1, 0)], 0)
    assert engine.stage is Phase.MULTICAST
    with pytest.raises(ProtocolError, match="multicast symbol not resolvable"):
        drive_engine(engine, bits, [(1, 0)], 2)


def test_decode_fails_without_covering_observation():
    rx = (Receiver(), Receiver())
    engine = new_engine([], [PacketId(2, 0), PacketId(2, 1)], 0, "")
    drive_engine(engine, ([], [0, 0]), [(0, 1)], 0, rx)
    ok, _ = rx[1].decode(2)
    assert not ok


# ---------------------------------------------------------------------------
# protocol invariants
# ---------------------------------------------------------------------------


def test_causality_replay():
    p = ModeParams(0.7, 0.1, 0.6)
    n = 800
    plan = plan_scheme(p, n, Scheme.INTER_MODAL, 1.0)
    rng = np.random.default_rng(5)
    s1 = (rng.random(n) > 0.4).astype(np.uint8)
    s2 = (rng.random(n) > 0.4).astype(np.uint8)
    cut = 400

    def record(channel):
        actions = []
        run_trial(
            p, n, 0, 0.0, plan, seed=9, channel=channel,
            observer=lambda t, a, tx: actions.append(a),
        )
        return actions

    base = record((s1, s2))
    s1p, s2p = s1.copy(), s2.copy()
    perm = rng.permutation(n - cut)
    s1p[cut:] = s1p[cut:][perm]
    s2p[cut:] = s2p[cut:][perm]
    permuted = record((s1p, s2p))
    assert base[:cut] == permuted[:cut]


def test_packet_conservation_and_queue_semantics():
    p = ModeParams(0.7, 0.1, 0.6)
    n = 300
    plan = plan_scheme(p, n, Scheme.INTER_MODAL, 1.0)

    def check(t, action, tx):
        statuses = tx.statuses
        overheard_1 = {q for q, st in statuses.items() if q.user == 1 and st is PacketStatus.OVERHEARD_ONLY}
        overheard_2 = {q for q, st in statuses.items() if q.user == 2 and st is PacketStatus.OVERHEARD_ONLY}
        assert set(tx.v_1_given_2) == overheard_1
        assert set(tx.v_2_given_1) == overheard_2
        if tx.phase in (Phase.RAW1, Phase.RAW2):
            for user, m in ((1, plan.m1), (2, plan.m2)):
                core = [statuses[PacketId(user, i)] for i in range(m)]
                delivered = sum(st is PacketStatus.DELIVERED for st in core)
                queued = sum(st is PacketStatus.OVERHEARD_ONLY for st in core)
                remaining = sum(
                    st in (PacketStatus.FRESH, PacketStatus.AWAITING) for st in core
                )
                assert delivered + queued + remaining == m

    for seed in range(50):
        run_trial(p, n, 20, 0.4, plan, seed=seed, observer=check)


def test_status_progression_is_monotone():
    p = ModeParams(0.8, 0.2, 0.5)
    n = 250
    plan = plan_scheme(p, n, Scheme.INTER_MODAL, 1.0)
    order = {
        PacketStatus.FRESH: 0,
        PacketStatus.AWAITING: 1,
        PacketStatus.OVERHEARD_ONLY: 2,
        PacketStatus.DELIVERED: 3,
    }
    last: dict[PacketId, int] = {}

    def check(t, action, tx):
        for pid, st in tx.statuses.items():
            rank = order[st]
            assert rank >= last.get(pid, 0)
            last[pid] = rank

    run_trial(p, n, 0, 0.0, plan, seed=3, observer=check)


def test_completion_correctness_with_deadline_removed():
    # the batched driver has no deadline-free mode; the observed run, which
    # takes slots erased on both links through the loop body too, must give
    # the unobserved run's stats past n
    cases = [
        (ModeParams(0.9, 0.3, 0.5), Scheme.INTER_MODAL),
        (ModeParams(0.6, 0.4, 0.4), Scheme.INTER_MODAL),
        (ModeParams(0.9, 0.3, 0.5), Scheme.INTRA_MODAL),
        (ModeParams(0.3, 0.8, 0.6), Scheme.INTRA_MODAL),
    ]
    for p, scheme in cases:
        plan = plan_scheme(p, 400, scheme, 0.0)
        for seed in range(5):
            stats = run_trial(
                p, 400, 30, 0.95, plan, seed=seed, run_to_completion=True
            )
            assert stats.decode_ok_1 and stats.decode_ok_2
            assert stats.bits_delivered_1 == stats.m1
            assert stats.bits_delivered_2 == stats.m2
            observed = run_trial(
                p, 400, 30, 0.95, plan, seed=seed, run_to_completion=True,
                observer=lambda t, a, tx: None,
            )
            assert repr(stats) == repr(observed), (p, scheme, seed)


def test_deadline_free_run_raises_when_no_slot_past_n_is_heard():
    # delta_b = 1: round A still holds a queue at n, and every later slot is
    # erased on both links, so the run could never finish
    p = ModeParams(0.5, 1.0, 0.5)
    n = 100
    plan = plan_scheme(p, n, Scheme.INTRA_MODAL, 0.0)

    def bounded(t, action, tx):
        if t >= 10 * n:
            raise RuntimeError("the deadline-free run went on past 10 n slots")

    with pytest.raises(ProtocolError, match="cannot finish"):
        run_trial(p, n, 0, 0.0, plan, 2, observer=bounded, run_to_completion=True)
    # a run that finishes by n needs no slot past it
    clean_a = ModeParams(0.0, 1.0, 0.5)
    plan = plan_scheme(clean_a, n, Scheme.INTRA_MODAL, 0.0)
    stats = run_trial(clean_a, n, 0, 0.0, plan, 0, observer=bounded, run_to_completion=True)
    assert stats.decode_ok_1 and stats.decode_ok_2
    assert stats.phase_boundaries["a_multicast"] == n // 2


@pytest.mark.parametrize(
    "phase, m1, m2", [("raw1", 90, 10), ("raw2", 40, 60), ("multicast", 35, 35)]
)
def test_deadline_free_run_extends_the_channel_inside_a_phase(phase, m1, m2):
    # one inter-modal round at n = 100 whose named phase runs at slot n, where
    # the loop stops for the first extension of the channel and then resumes
    p = ModeParams(0.5, 0.5, 0.5)
    plan = SchemePlan(
        scheme=Scheme.INTER_MODAL, n=100, n_a=50, m1=m1, m2=m2, alpha=1.0, guard=0
    )
    stats = run_trial(p, plan.n, 0, 0.0, plan, 0, run_to_completion=True)
    observed = run_trial(
        p, plan.n, 0, 0.0, plan, 0, run_to_completion=True, observer=lambda t, a, tx: None
    )
    assert observed == stats
    ends = [stats.phase_boundaries[key] for key in ("raw1", "raw2", "multicast")]
    k = ("raw1", "raw2", "multicast").index(phase)
    assert ([0] + ends)[k] < plan.n < ends[k]
    assert_batched_agrees_past_n(p, plan, 0, stats)


def assert_batched_agrees_past_n(p, plan, seed, stats):
    """The batched driver over the deadline-free run's sampled slots, with the
    round's limit at the run's last slot, ends each phase where it did."""
    horizon = stats.phase_boundaries["multicast"]
    s1, s2 = ChannelSampler(
        build_schedule(plan.n, p.eta, 0, p.delta_a, 0.0, p.delta_b),
        np.random.SeedSequence(seed).spawn(2)[0],
    ).slots(1, horizon + 1)
    longer = dataclasses.replace(plan, n=horizon)
    block = _run_block(longer, s1.view(bool)[None], s2.view(bool)[None])
    assert {key: int(v[0]) for key, v in block.boundaries.items()} == stats.phase_boundaries
    assert block.decode_ok[:, 0].tolist() == [stats.decode_ok_1, stats.decode_ok_2] == [True, True]


# The raw phases walk only the slots some link hears.  Intra, two packets per
# user and round, round A's limit n_a = 6; each case's slots, and the round A
# and B stage ends (raw1, raw2, multicast) they give.
HEARD_WALK_CASES = {
    # round A hears slot 0 and nothing after it, so raw1's walk runs out of
    # heard slots before its limit; round B is clean
    "all_erased_to_stop": (
        [(1, 0)] + [(0, 0)] * 5 + [(1, 1)] * 6, [None, None, None], [8, 10, 10],
    ),
    # a heard slot at stop - 1 ends raw1 in round A's last slot; the heard
    # slot at stop is round B's
    "heard_at_stop_minus_1_ends_the_phase": (
        [(1, 0)] + [(0, 0)] * 4 + [(1, 0)] + [(1, 1)] * 6, [6, None, None], [8, 10, 10],
    ),
    # the same slots with raw1 still one packet short at the limit
    "heard_at_stop_minus_1_leaves_the_phase_open": (
        [(0, 0)] * 5 + [(1, 0)] + [(1, 1)] * 6, [None, None, None], [8, 10, 10],
    ),
    # round A ends at slot 4; round B starts at 6 inside the erased run 4-7
    "round_start_inside_an_erased_run": (
        [(1, 1)] * 4 + [(0, 0)] * 4 + [(1, 1)] * 4, [2, 4, 4], [10, 12, 12],
    ),
}


@pytest.mark.parametrize("case", HEARD_WALK_CASES)
def test_heard_walk_edges(case):
    slots, ends_a, ends_b = HEARD_WALK_CASES[case]
    p = ModeParams(0.5, 0.0, 0.5)
    plan = SchemePlan(
        scheme=Scheme.INTRA_MODAL, n=12, n_a=6, m1=4, m2=4, alpha=0.0, guard=0,
        run_a=2, run_b=2,
    )
    channel = inject(slots)
    # the observer sees each slot once and in order, and observed = unobserved
    log, _, _, stats = observe_erased_slots(p, plan, 0, channel=channel)
    assert [t for t, _, _ in log] == list(range(ends_b[-1]))
    assert stats == run_trial(p, plan.n, 0, 0.0, plan, 0, channel=channel, driver="batched")
    stages = ("raw1", "raw2", "multicast")
    assert [stats.phase_boundaries["a_" + key] for key in stages] == ends_a
    assert [stats.phase_boundaries["b_" + key] for key in stages] == ends_b


def test_heard_walk_finds_the_first_heard_slot_in_the_second_extension():
    # mode A is clean and mode B erases a slot on both links with probability
    # about 1 - 2e-4: raw1 ends at n_a = 5, and at seed 11 no slot from 5 to
    # n + 4096 is heard, so raw2's first heard slot lies in the channel's
    # second 4,096-slot extension past n = 10; user 1 overhears b0 there, and
    # the bare head reaches user 2 later in that extension
    p = ModeParams(0.0, 0.9999, 0.5)
    n = 10
    plan = SchemePlan(scheme=Scheme.INTER_MODAL, n=n, n_a=5, m1=5, m2=1, alpha=1.0, guard=0)
    log, _, _, stats = observe_erased_slots(p, plan, 11, run_to_completion=True)
    ends = [stats.phase_boundaries[key] for key in ("raw1", "raw2", "multicast")]
    assert ends[0] == 5
    assert n + 4096 < ends[1] < ends[2] <= n + 2 * 4096
    assert [t for t, _, _ in log] == list(range(ends[2]))
    assert_batched_agrees_past_n(p, plan, 11, stats)


def test_driver_equivalence_on_grid():
    cases = [
        (0.75, 0.0, 32 / 35),
        (0.75, 0.0, 1 / 6),
        (0.6, 0.2, 0.5),
        (0.5, 0.5, 0.3),
        (0.9, 0.1, 0.8),
        (0.0, 0.0, 0.5),
    ]
    for da, db, eta in cases:
        p = ModeParams(da, db, eta)
        # the no-feedback baseline has no per-slot reference driver
        for scheme in (Scheme.INTER_MODAL, Scheme.INTRA_MODAL):
            for n in (400, 1500):
                room = n - floor_index(eta * n)
                for n_t, d_t in ((0, 0.0), (min(40, room), 0.5)):
                    for coeff in (0.0, 1.0):
                        plan = plan_scheme(p, n, scheme, coeff)
                        for seed in range(3):
                            ref = run_trial(
                                p, n, n_t, d_t, plan, seed, driver="reference"
                            )
                            bat = run_trial(
                                p, n, n_t, d_t, plan, seed, driver="batched"
                            )
                            assert ref == bat, (da, db, eta, scheme, n, n_t, coeff, seed)


def test_trial_determinism():
    plan = plan_scheme(CAPACITY, 2000, Scheme.INTER_MODAL, 2.0)
    a = run_trial(CAPACITY, 2000, 0, 0.0, plan, seed=77)
    b = run_trial(CAPACITY, 2000, 0, 0.0, plan, seed=77)
    assert a == b


def test_erasure_free_intramodal_rate_one():
    p = ModeParams(0.0, 0.0, 0.5)
    n = 100
    plan = plan_scheme(p, n, Scheme.INTRA_MODAL, 0.0)
    stats = run_trial(p, n, 0, 0.0, plan, seed=1)
    assert stats.decode_ok_1 and stats.decode_ok_2
    assert stats.sum_rate == 1.0


def test_phase_length_statistics():
    # raw-phase service time ~ 1/(1-delta_a^2) slots per packet, and the
    # virtual queues collect a delta_a/(1+delta_a) fraction of each message
    p = CAPACITY
    n = 10_000
    plan = plan_scheme(p, n, Scheme.INTER_MODAL, 3.0)
    slot_ratios = []
    backlog_ratios = []
    for k in range(200):
        stats = run_trial(p, n, 0, 0.0, plan, trial_seed(4242, k))
        assert stats.raw_slots is not None
        slot_ratios.append(stats.raw_slots / (plan.m1 + plan.m2))
        backlog_ratios.append(stats.backlog_1 / plan.m1)
        backlog_ratios.append(stats.backlog_2 / plan.m2)
    mean_service = sum(slot_ratios) / len(slot_ratios)
    mean_backlog = sum(backlog_ratios) / len(backlog_ratios)
    assert abs(mean_service - 16 / 7) / (16 / 7) < 0.02
    assert abs(mean_backlog - 3 / 7) / (3 / 7) < 0.02


def test_transient_mode_is_invisible_to_plan_and_tolerated():
    # the plan ignores (n_T, delta_T); a transient whose damage fits inside
    # the completion margin does not disturb decoding
    p = CAPACITY
    n = 50_000
    plan = plan_scheme(p, n, Scheme.INTER_MODAL, 3.0)
    assert plan == plan_scheme(p, n, Scheme.INTER_MODAL, 3.0)
    n_t = math.ceil(n ** (2 / 3))
    ok_benign = ok_mild = 0
    for seed in range(20):
        benign = run_trial(p, n, n_t, p.delta_b, plan, seed=seed)
        ok_benign += benign.decode_ok_1 and benign.decode_ok_2
        mild = run_trial(p, n, 200, 0.5, plan, seed=seed)
        ok_mild += mild.decode_ok_1 and mild.decode_ok_2
    assert ok_benign == 20
    assert ok_mild >= 19


def test_clipped_regime_monte_carlo_hits_analytic_recipe():
    # mean sum rate within 3% of the 0.890625 analytic value
    n = 100_000
    plan = plan_scheme(CLIPPED, n, Scheme.INTER_MODAL, 3.0)
    total = 0.0
    trials = 60
    for k in range(trials):
        stats = run_trial(CLIPPED, n, 0, 0.0, plan, trial_seed(97, k))
        total += stats.sum_rate
    assert abs(total / trials - 0.890625) / 0.890625 < 0.03
