import math

import numpy as np
import pytest

from bpecsim.channel import (
    ChannelSampler,
    Mode,
    ModeKind,
    ModeSchedule,
    SlotState,
    build_schedule,
)


def test_build_schedule_floor_split():
    sched = build_schedule(35, 32 / 35, 0, 0.75, 0.0, 0.0)
    assert (sched.n_a, sched.n_t, sched.n_b) == (32, 0, 3)
    assert sched.delta_a == 0.75
    assert sched.delta_b == 0.0


def test_build_schedule_unimodal_degenerate():
    sched = build_schedule(10, 1.0, 0, 0.5, 0.0, 0.1)
    assert (sched.n_a, sched.n_t, sched.n_b) == (10, 0, 0)


def test_build_schedule_transient_arithmetic():
    sched = build_schedule(100, 1 / 6, 4, 0.75, 0.3, 0.0)
    assert (sched.n_a, sched.n_t, sched.n_b) == (16, 4, 80)


def test_build_schedule_length_conservation():
    for n, eta, n_t in [(7, 0.3, 2), (1000, 0.9, 31), (17, 0.0, 0), (50, 1.0, 0)]:
        sched = build_schedule(n, eta, n_t, 0.4, 0.2, 0.1)
        assert sched.n_a + sched.n_t + sched.n_b == n


def test_build_schedule_rejects_bad_inputs():
    with pytest.raises(ValueError):
        build_schedule(10, 1.2, 0, 0.5, 0.0, 0.0)
    with pytest.raises(ValueError):
        build_schedule(10, 0.5, 0, 1.5, 0.0, 0.0)
    with pytest.raises(ValueError):
        build_schedule(10, 0.9, 5, 0.5, 0.0, 0.0)  # n_A + n_T > n
    with pytest.raises(ValueError):
        build_schedule(0, 0.5, 0, 0.5, 0.0, 0.0)


def test_mode_schedule_rejects_bad_order():
    with pytest.raises(ValueError):
        ModeSchedule(
            modes=(
                Mode(ModeKind.NONTRANSIENT_B, 0.1, 5),
                Mode(ModeKind.TRANSIENT, 0.1, 0),
                Mode(ModeKind.NONTRANSIENT_A, 0.1, 5),
            ),
            n=10,
        )


def test_erasure_prob_at_piecewise():
    sched = build_schedule(35, 32 / 35, 0, 0.75, 0.0, 0.0)
    assert sched.erasure_prob_at(1) == 0.75
    assert sched.erasure_prob_at(32) == 0.75
    assert sched.erasure_prob_at(33) == 0.0
    sched2 = build_schedule(100, 1 / 6, 4, 0.75, 0.3, 0.0)
    assert sched2.erasure_prob_at(18) == 0.3
    assert sched2.erasure_prob_at(16) == 0.75
    assert sched2.erasure_prob_at(21) == 0.0
    with pytest.raises(IndexError):
        sched.erasure_prob_at(0)
    with pytest.raises(IndexError):
        sched.erasure_prob_at(36)


def test_sample_slot_degenerate_probs():
    sure = ChannelSampler(build_schedule(50, 1.0, 0, 0.0, 0.0, 0.0), seed=3)
    gone = ChannelSampler(build_schedule(50, 1.0, 0, 1.0, 0.0, 0.0), seed=3)
    for t in range(1, 51):
        assert sure.slot(t) == SlotState(1, 1)
        assert gone.slot(t) == SlotState(0, 0)


def test_sample_slot_binomial_concentration():
    # empirical delivery frequency within 3 sigma of 1 - delta at 1e5 slots
    n = 100_000
    delta = 0.75
    sampler = ChannelSampler(build_schedule(n, 1.0, 0, delta, 0.0, 0.0), seed=11)
    s1, s2 = sampler.slots(1, n + 1)
    bound = 3 * math.sqrt(delta * (1 - delta) / n)
    assert abs(s1.mean() - 0.25) < bound
    assert abs(s2.mean() - 0.25) < bound


def test_sampler_determinism_and_addressability():
    sched = build_schedule(500, 0.6, 40, 0.7, 0.2, 0.1)
    a = ChannelSampler(sched, seed=42)
    b = ChannelSampler(sched, seed=42)
    s1a, s2a = a.slots(1, 501)
    s1b, s2b = b.slots(1, 501)
    assert np.array_equal(s1a, s1b) and np.array_equal(s2a, s2b)
    # arbitrary subranges and single-slot reads reproduce the batch
    s1m, s2m = a.slots(100, 301)
    assert np.array_equal(s1m, s1a[99:300]) and np.array_equal(s2m, s2a[99:300])
    for t in (1, 99, 250, 500):
        assert a.slot(t) == SlotState(int(s1a[t - 1]), int(s2a[t - 1]))
    c = ChannelSampler(sched, seed=43)
    s1c, _ = c.slots(1, 501)
    assert not np.array_equal(s1a, s1c)


def test_sampler_statistical_fidelity_across_seeds():
    # per-mode delivery frequency within 4*sqrt(d(1-d)/L) of 1-d, 20 fixed seeds
    n = 30_000
    sched = build_schedule(n, 0.4, 5_000, 0.75, 0.3, 0.1)
    violations = 0
    checks = 0
    for seed in range(20):
        s1, s2 = ChannelSampler(sched, seed=seed).slots(1, n + 1)
        for start, stop, mode in sched.segments():
            L = stop - start
            d = mode.erasure_prob
            bound = 4 * math.sqrt(d * (1 - d) / L)
            for s in (s1, s2):
                checks += 1
                if abs(s[start:stop].mean() - (1 - d)) > bound:
                    violations += 1
    assert checks == 120
    assert violations == 0


def test_sampler_cross_user_independence():
    n = 100_000
    sampler = ChannelSampler(build_schedule(n, 1.0, 0, 0.5, 0.0, 0.0), seed=7)
    s1, s2 = sampler.slots(1, n + 1)
    corr = np.corrcoef(s1, s2)[0, 1]
    assert abs(corr) < 0.02


def test_sample_slot_function_validates_schedule():
    sched = build_schedule(10, 0.5, 0, 0.5, 0.0, 0.0)
    sampler = ChannelSampler(sched, seed=1)
    with pytest.raises(IndexError):
        sampler.slot(11)
