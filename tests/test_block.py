"""The block driver: ``run_block`` runs many trials as one (trials x n) array
problem, and each of its rows must equal ``run_trial`` on that row's seed.
``simulate`` runs its trials in such blocks, so its reports must equal a
per-trial reduction wherever the blocks and the worker chunks are cut."""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.random import Philox, SeedSequence

from bpecsim import montecarlo
from bpecsim.channel import (
    ChannelSampler,
    build_schedule,
    channel_key,
    floor_index,
    sample_block,
)
from bpecsim.montecarlo import AggregateStats, simulate, trial_seed
from bpecsim.protocol import Scheme, plan_scheme, run_block, run_trial
from bpecsim.rates import ModeParams, UnsupportedParametersError

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
    rows = block.rows()
    assert len(rows) == size
    for r in range(size):
        stats = run_trial(p, n, n_t, delta_t, plan, trial_seed(master, first + r))
        assert rows[r] == (stats.sum_rate, stats.decode_ok_1, stats.decode_ok_2)
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
    assert block.rows() == []
    assert block.decode_ok.shape == block.backlog.shape == (2, 0)
    assert all(ends.shape == (0,) for ends in block.boundaries.values())


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
    mean = sum(rates) / trials
    half = 0.0
    if trials > 1:
        var = sum((x - mean) ** 2 for x in rates) / (trials - 1)
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
