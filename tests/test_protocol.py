import math

import numpy as np
import pytest

from bpecsim.channel import build_schedule, floor_index
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


def test_transmitter_raises_when_done():
    plan = micro_plan(2)
    stats = run_trial(
        ModeParams(0.5, 0.0, 1.0),
        2,
        0,
        0.0,
        plan,
        seed=1,
        channel=inject([(1, 1), (1, 1)]),
    )
    assert stats.decode_ok_1 and stats.decode_ok_2
    tx = Transmitter(plan, np.zeros(1, dtype=np.uint8), np.zeros(1, dtype=np.uint8))
    tx.apply_feedback(0, tx.next_action(0), 1, 1)
    tx.apply_feedback(1, tx.next_action(1), 1, 1)
    assert tx.phase is Phase.DONE
    with pytest.raises(ProtocolError):
        tx.next_action(2)


def test_done_at_sees_the_feedback_of_its_own_slot():
    # asking again after a slot's last feedback must see the round end
    tx = Transmitter(micro_plan(2), np.zeros(1, dtype=np.uint8), np.zeros(1, dtype=np.uint8))
    for t in range(2):
        assert not tx.done_at(t)
        tx.apply_feedback(t, tx.next_action(t), 1, 1)
    assert tx.done_at(1)
    assert tx.done_at(2)


def test_next_action_twice_in_a_slot_changes_nothing():
    p = ModeParams(0.6, 0.2, 0.5)
    n = 120
    plan = plan_scheme(p, n, Scheme.INTRA_MODAL, 0.0)
    rng = np.random.default_rng(2)
    s1, s2 = (rng.random((2, n)) > 0.6).astype(np.uint8)
    bits1, bits2 = rng.integers(0, 2, size=(2, plan.m1), dtype=np.uint8)
    tx = Transmitter(plan, bits1, bits2)
    kinds = set()
    for t in range(n):
        if tx.done_at(t):
            break
        first = tx.next_action(t)
        statuses = dict(tx.statuses)
        second = tx.next_action(t)
        assert second == first
        assert tx.statuses == statuses
        kinds.add(first and first.kind)  # None while idle before round B
        tx.apply_feedback(t, second, int(s1[t]), int(s2[t]))
    assert {"raw", "xor"} <= kinds


def test_transmitter_driven_by_hand_matches_the_reference_log():
    # mode A erases heavily, so round A is cut off at its limit n_a = 20
    p = ModeParams(0.75, 0.0, 0.5)
    n = 40
    plan = plan_scheme(p, n, Scheme.INTRA_MODAL, 0.0)
    rng = np.random.default_rng(11)
    s1, s2 = (rng.random((2, n)) > 0.75).astype(np.uint8)
    s1[20:] = s2[20:] = 1
    logged = []
    stats = run_trial(
        p, n, 0, 0.0, plan, seed=7, channel=(s1, s2),
        observer=lambda t, a, tx: logged.append((t, a, tx.phase)),
    )
    assert stats.phase_boundaries["a_multicast"] is None
    assert stats.phase_boundaries["b_multicast"] is not None
    # run_trial draws the message from the second child of its seed
    msg = np.random.default_rng(np.random.SeedSequence(7).spawn(2)[1])
    bits1 = msg.integers(0, 2, size=plan.message_size(1), dtype=np.uint8)
    bits2 = msg.integers(0, 2, size=plan.message_size(2), dtype=np.uint8)
    tx = Transmitter(plan, bits1, bits2)
    by_hand = []
    for t in range(n):
        if tx.done_at(t):
            break
        action = tx.next_action(t)
        tx.apply_feedback(t, action, int(s1[t]), int(s2[t]))
        by_hand.append((t, action, tx.phase))
    assert by_hand == logged
    assert tx.boundaries == stats.phase_boundaries


def test_receiver_observe_and_decode():
    rx = Receiver(1)
    b2 = PacketId(2, 1)
    a5 = PacketId(1, 4)
    rx.observe(Action("raw", (b2,), 1))
    assert rx.overheard[b2] == 1
    rx.observe(Action("xor", (a5, b2), 0))
    ok, recovered = rx.decode(5)
    assert not ok  # only a5 of the five own packets is known
    assert recovered[4] == 1  # 0 ^ overheard 1
    rx2 = Receiver(1)
    for i in range(3):
        rx2.observe(Action("raw", (PacketId(1, i),), 1))
    ok2, rec2 = rx2.decode(3)
    assert ok2 and rec2 == {0: 1, 1: 1, 2: 1}


def test_receiver_rejects_unresolvable_multicast():
    # neither the own packet nor the overheard partner is known
    with pytest.raises(ProtocolError):
        Receiver(1).observe(Action("xor", (PacketId(1, 0), PacketId(2, 0)), 0))


def test_decode_fails_without_covering_observation():
    rx = Receiver(2)
    rx.observe(Action("raw", (PacketId(2, 0),), 0))
    ok, _ = rx.decode(2)
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
