"""The block driver: ``run_block`` runs many trials as one (trials x n) array
problem, and each of its rows must equal ``run_trial`` on that row's seed.
``simulate`` runs its trials in such blocks, so its reports must equal a
per-trial reduction wherever the blocks and the worker chunks are cut.  In a
row that is still live, each hit query of the block reads fresh slots."""
import functools
import math
import operator

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.random import Philox, SeedSequence

from bpecsim import montecarlo, protocol
from bpecsim.channel import (
    ChannelSampler,
    build_schedule,
    channel_key,
    floor_index,
    sample_block,
)
from bpecsim.montecarlo import AggregateStats, default_transient_length, simulate, trial_seed
from bpecsim.protocol import Scheme, plan_scheme, run_block, run_trial
from bpecsim.rates import ModeParams, UnsupportedParametersError
from test_differential import RANDOM_DRAW_SEEDS, REALISTIC_DRAWS, plans, random_draws
from test_exhaustive import PLANS, every_realization

# erasure probabilities, with the degenerate modes drawn often
PROB = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@st.composite
def block_params(draw):
    p = ModeParams(draw(PROB), draw(PROB), draw(st.floats(0.0, 1.0)))
    n = draw(st.integers(1, 3000))
    n_t = draw(st.integers(0, n - floor_index(p.eta * n)))
    guard = draw(st.sampled_from([0.0, 0.5, 3.0]))
    return p, n, n_t, draw(PROB), guard


def numpy_keys(master, lo, hi):
    """(hi - lo, 2) channel keys of trials lo..hi-1 from numpy's own SeedSequence."""
    keys = [channel_key(trial_seed(master, k).spawn(1)[0]) for k in range(lo, hi)]
    return np.array(keys, np.uint64).reshape(-1, 2)


def assert_rows_match_run_trial(p, n, n_t, delta_t, plan, master, first, size):
    block = run_block(p, n, n_t, delta_t, plan, numpy_keys(master, first, first + size))
    assert block.decode_ok.shape == (2, size) and block.decode_ok.dtype == bool
    for r in range(size):
        stats = run_trial(p, n, n_t, delta_t, plan, trial_seed(master, first + r))
        assert block.decode_ok[:, r].tolist() == [stats.decode_ok_1, stats.decode_ok_2]
        ends = {k: (int(v[r]) if v[r] >= 0 else None) for k, v in block.boundaries.items()}
        assert list(ends.items()) == list(stats.phase_boundaries.items())
        if stats.backlog_1 is not None:
            assert block.backlog[:, r].tolist() == [stats.backlog_1, stats.backlog_2]


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    params=block_params(),
    master=st.integers(0, 2**32 - 1),
    first=st.integers(0, 10_000),
    size=st.integers(1, 9),
)
@example(params=(ModeParams(0.75, 0.125, 0.5), 1000, 100, 0.5, 0.5), master=7, first=0, size=9)
@example(params=(ModeParams(0.75, 0.0, 32 / 35), 1000, 0, 0.0, 0.0), master=1, first=5, size=9)
@example(params=(ModeParams(1.0, 0.0, 0.5), 300, 20, 1.0, 0.0), master=2, first=0, size=3)
@example(params=(ModeParams(0.0, 1.0, 0.5), 300, 0, 0.0, 3.0), master=3, first=0, size=3)
@example(params=(ModeParams(0.5, 0.5, 0.0), 1, 0, 0.5, 0.0), master=4, first=0, size=2)
def test_block_rows_equal_run_trial(params, master, first, size):
    p, n, n_t, delta_t, guard = params
    for scheme in Scheme:
        try:
            plan = plan_scheme(p, n, scheme, guard)
        except UnsupportedParametersError:
            assert scheme is Scheme.INTER_MODAL
            continue
        assert_rows_match_run_trial(p, n, n_t, delta_t, plan, master, first, size)


def test_block_rows_cover_failing_trials():
    # a dead transient mode: some rows never finish the core round, so their
    # chained tail round stays unstarted while other rows of the block run it
    p = ModeParams(0.5, 0.5, 0.7)
    plan = plan_scheme(p, 500, Scheme.INTER_MODAL, 0.0)
    block = run_block(p, 500, 46, 1.0, plan, numpy_keys(11, 0, 32))
    unstarted = block.boundaries["multicast"] == -1
    assert 0 < unstarted.sum() < 32
    assert (block.boundaries["tail_raw1"][unstarted] == -1).all()
    assert (block.boundaries["tail_multicast"] >= 0).any()
    assert not block.decode_ok.all(axis=0)[unstarted].any()
    assert_rows_match_run_trial(p, 500, 46, 1.0, plan, 11, 0, 32)


@pytest.mark.parametrize("scheme", list(Scheme))
def test_block_of_no_seeds_has_no_rows(scheme):
    p = ModeParams(0.75, 0.125, 0.5)
    plan = plan_scheme(p, 1000, scheme, 3.0)
    block = run_block(p, 1000, 100, 0.5, plan, numpy_keys(1, 0, 0))
    assert block.decode_ok.dtype == bool
    assert block.decode_ok.shape == block.backlog.shape == (2, 0)
    assert all(ends.shape == (0,) for ends in block.boundaries.values())


@pytest.fixture
def hit_windows(monkeypatch):
    """The (index, t, end) of each ``protocol._hits`` query, in call order:
    the slots ``[t, end)`` it read of the sorted index in each row.  A query
    that got fewer hits than it asked for read every slot up to its stop."""
    windows = []
    hits = protocol._hits

    def recording_hits(idx, t, k, stop):
        taken, end = hits(idx, t, k, stop)
        windows.append((idx, t, np.where(taken == k, end, stop)))
        return taken, end

    monkeypatch.setattr(protocol, "_hits", recording_hits)
    return windows


def assert_windows_are_fresh(plan, block, windows):
    """In each row, the queries that run while the row is live read slots
    that no earlier query read on the same link: a round's raw1 is live where
    the round started, its raw2 where raw1 ended and each drain where raw2
    ended.  A useful slot is one some link hears, so the raw phases' windows
    on the useful index count for both links."""
    boundaries, rows = block.boundaries, block.decode_ok.shape[1]
    live, before = [], None
    for spec in plan.rounds():
        started = np.ones(rows, bool)
        if spec.chained:
            started = boundaries[before.label + "multicast"] >= 0
        raw1, raw2 = (boundaries[spec.label + phase] >= 0 for phase in ("raw1", "raw2"))
        live += [started, raw1, raw2, raw2]  # raw1, raw2 and the two drains
        before = spec
    assert len(windows) == len(live)
    useful = windows[0][0]
    links = {id(idx): idx for idx, _, _ in windows if idx is not useful}
    assert len(links) == 2
    for link in links.values():
        read_to = np.zeros(rows, np.intp)  # each row's windows so far end here
        for (idx, t, end), rows_live in zip(windows, live):
            if idx is useful or idx is link:
                stale = rows_live & ((t < read_to) | (end < t))
                assert not stale.any(), f"rows {np.flatnonzero(stale)[:5]} read a slot again"
                read_to = np.where(rows_live, end, read_to)
    windows.clear()


@pytest.mark.parametrize("name", PLANS)
def test_hit_windows_are_fresh_in_every_realization(hit_windows, name):
    _, plan = PLANS[name]
    block = protocol._run_block(plan, *every_realization(plan.n))
    assert_windows_are_fresh(plan, block, hit_windows)


def test_hit_windows_are_fresh_on_the_differential_draws(hit_windows):
    # the random and the realistic draws of the driver oracle, with as many
    # trials to a block as simulate runs, up to 64
    draws = [draw for seed in RANDOM_DRAW_SEEDS for draw in random_draws(seed)]
    for delta_a, delta_b, eta, n, n_t, delta_t, _, guard, seed, _ in REALISTIC_DRAWS.values():
        n_t = default_transient_length(n, eta) if n_t is None else n_t
        draws.append(((ModeParams(delta_a, delta_b, eta), n, n_t, delta_t, guard), seed))
    for (p, n, n_t, delta_t, guard), seed in draws:
        keys = montecarlo._block_keys(seed, 0, min(64, max(1, montecarlo._BLOCK_SLOTS // n)))
        for plan in plans(p, n, guard):
            block = run_block(p, n, n_t, delta_t, plan, keys)
            assert_windows_are_fresh(plan, block, hit_windows)


@pytest.mark.parametrize("scheme", [Scheme.INTER_MODAL, Scheme.INTRA_MODAL])
@pytest.mark.parametrize("hears", [1, 2])
def test_one_user_hearing_every_slot_matches_the_reference(scheme, hears):
    # the other user's virtual queue never drains, so the core round never
    # finishes and the chained tail round never starts
    p = ModeParams(0.75, 0.125, 0.5)
    plan = plan_scheme(p, 1000, scheme, 3.0)
    on, off = np.ones(1000, np.uint8), np.zeros(1000, np.uint8)
    channel = (on, off) if hears == 1 else (off, on)
    ref = run_trial(p, 1000, 0, 0.0, plan, 1, channel=channel, driver="reference")
    bat = run_trial(p, 1000, 0, 0.0, plan, 1, channel=channel, driver="batched")
    assert repr(ref) == repr(bat)


def test_nofb_decodes_with_exactly_as_many_slots_as_packets():
    p = ModeParams(0.5, 0.5, 0.5)
    plan = plan_scheme(p, 100, Scheme.NO_FEEDBACK, 0.0)
    assert (plan.fec_a, plan.fec_b) == ((12, 12), (12, 12))
    s1, s2 = np.zeros(100, np.uint8), np.zeros(100, np.uint8)
    s1[0:24:2] = s1[50:74:2] = 1  # user 1 streams on even slots, 12 per mode
    s2[1:25:2] = s2[51:75:2] = 1  # user 2 on odd slots
    stats = run_trial(p, 100, 0, 0.0, plan, 1, channel=(s1, s2))
    assert (stats.decode_ok_1, stats.decode_ok_2) == (True, True)
    s1[50] = s2[1] = 0
    stats = run_trial(p, 100, 0, 0.0, plan, 1, channel=(s1, s2))
    assert (stats.decode_ok_1, stats.decode_ok_2) == (False, False)


@settings(derandomize=True, max_examples=50, deadline=None)
@given(
    seed=st.one_of(
        st.integers(0, 2**128 - 1), st.tuples(st.integers(0, 2**63), st.integers(0, 2**20))
    )
)
def test_channel_key_is_philox_key(seed):
    ss = SeedSequence(seed)
    assert channel_key(ss).tolist() == Philox(seed=ss).state["state"]["key"].tolist()
    if isinstance(seed, int):
        assert channel_key(seed).tolist() == Philox(seed=seed).state["state"]["key"].tolist()


@settings(derandomize=True, max_examples=40, deadline=None)
@given(params=block_params(), master=st.integers(0, 2**32 - 1), size=st.integers(1, 5))
def test_sample_block_rows_equal_sampler_slots(params, master, size):
    p, n, n_t, delta_t, _ = params
    schedule = build_schedule(n, p.eta, n_t, p.delta_a, delta_t, p.delta_b)
    children = [trial_seed(master, k).spawn(2)[0] for k in range(size)]
    block = sample_block(schedule, np.array([channel_key(c) for c in children]))
    assert block.shape == (2, size, n) and block.dtype == bool
    for r, child in enumerate(children):
        s1, s2 = ChannelSampler(schedule, child).slots(1, n + 1)
        assert np.array_equal(block[0, r], s1.view(bool))
        assert np.array_equal(block[1, r], s2.view(bool))


# the trial indices where the 32-bit word count of a trial index changes
K_EDGES = (0, 2**32 - 1, 2**32, 2**64 - 1)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    master=st.integers(0, 2**128),
    edge=st.one_of(st.sampled_from(K_EDGES), st.integers(0, 2**70)),
    before=st.integers(0, 3),
    size=st.integers(0, 8),
)
@example(master=0, edge=0, before=0, size=8)
@example(master=2**32 - 1, edge=2**32, before=3, size=8)
@example(master=2**64 + 5, edge=2**64 - 1, before=3, size=8)
@example(master=3**100, edge=2**32, before=2, size=5)  # a master of five 32-bit words
def test_block_keys_equal_numpy_seed_sequence(master, edge, before, size):
    lo = max(0, edge - before)
    keys = montecarlo._block_keys(master, lo, lo + size)
    assert keys.dtype == np.uint64 and keys.shape == (size, 2)
    for r in range(size):
        child = SeedSequence((master, lo + r)).spawn(1)[0]
        assert keys[r].tolist() == child.generate_state(2, np.uint64).tolist()


@pytest.mark.parametrize("master", [0, 5, 2**64 + 5])
def test_block_keys_block_equals_its_rows(master):
    lo, hi = 2**32 - 20, 2**32 + 20
    keys = montecarlo._block_keys(master, lo, hi)
    rows = [montecarlo._block_keys(master, k, k + 1)[0] for k in range(lo, hi)]
    assert np.array_equal(keys, rows)
    assert np.array_equal(keys[7:30], montecarlo._block_keys(master, lo + 7, lo + 30))


def test_block_keys_of_an_empty_block():
    for lo in (0, 17, 2**32):
        keys = montecarlo._block_keys(3, lo, lo)
        assert keys.shape == (0, 2) and keys.dtype == np.uint64


def test_simulate_rejects_a_negative_master_seed():
    p = ModeParams(0.75, 0.125, 0.5)
    with pytest.raises(ValueError, match="non-negative"):
        simulate(p, 1000, 100, 0.5, Scheme.INTER_MODAL, 3.0, 4, -1)


def _per_trial_reduction(p, n, n_t, delta_t, scheme, guard, trials, master):
    """simulate's report, from one run_trial per trial index."""
    plan = plan_scheme(p, n, scheme, guard)
    stats = [run_trial(p, n, n_t, delta_t, plan, trial_seed(master, k)) for k in range(trials)]
    rates = [s.sum_rate for s in stats]
    # floats added left to right, as builtin sum() adds them before Python 3.12
    mean = functools.reduce(operator.add, rates, 0.0) / trials
    half = 0.0
    if trials > 1:
        var = functools.reduce(operator.add, [(x - mean) ** 2 for x in rates], 0.0) / (trials - 1)
        half = montecarlo._Z95 * math.sqrt(var / trials)
    return AggregateStats(
        trials=trials,
        mean_sum_rate=mean,
        sum_rate_ci95=(mean - half, mean + half),
        failure_rate_1=sum(not s.decode_ok_1 for s in stats) / trials,
        failure_rate_2=sum(not s.decode_ok_2 for s in stats) / trials,
    )


B = montecarlo._BLOCK_SLOTS // 1000  # trials per block at n = 1e3


@pytest.mark.parametrize("scheme", list(Scheme))
@pytest.mark.parametrize("guard", [3.0, 0.0])
def test_simulate_is_byte_identical_across_block_edges(monkeypatch, scheme, guard):
    p = ModeParams(0.75, 0.125, 0.5)
    for trials in (1, B - 1, B, B + 1, 2 * B + 1):
        expected = _per_trial_reduction(p, 1000, 100, 0.5, scheme, guard, trials, 29)
        for k in (1, 2, 3):
            monkeypatch.setattr(montecarlo, "_worker_count", lambda trials, n, k=k: k)
            got = simulate(p, 1000, 100, 0.5, scheme, guard, trials, 29)
            assert repr(got) == repr(expected), (trials, k)


@pytest.mark.parametrize("scheme", list(Scheme))
@pytest.mark.parametrize("n, trials", [(1000, 150), (20_000, 8)])
def test_simulate_stats_do_not_depend_on_the_block_size(monkeypatch, scheme, n, trials):
    # 16, 32 or 65 trials to a block at n = 1e3; at n = 2e4 one trial, run by
    # run_trial, or blocks of three
    p = ModeParams(0.75, 0.0, 32 / 35)
    reports = set()
    for slots in (2**14, 2**15, 2**16):
        monkeypatch.setattr(montecarlo, "_BLOCK_SLOTS", slots)
        for k in (1, 2):
            monkeypatch.setattr(montecarlo, "_worker_count", lambda trials, n, k=k: k)
            got = simulate(p, n, 0, 0.0, scheme, 0.0, trials, 29)
            reports.add(repr(got))
    assert len(reports) == 1
    assert 0 < got.failure_rate_1 < 1 and 0 < got.failure_rate_2 < 1
