import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.random import SeedSequence

from bpecsim.channel import (
    ChannelSampler,
    Mode,
    ModeKind,
    ModeSchedule,
    SlotState,
    build_schedule,
    received,
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


# The sampler contract: sha256 of s1.tobytes() + s2.tobytes() for slots(t0, t1).
# name -> (build_schedule args, seed, t0, t1, sha256); seed None is the first
# child spawned from SeedSequence(12345), as run_trial seeds its channel.
GOLDEN_SLOTS = {
    "full-seed-1": (
        (1000, 32 / 35, 0, 0.75, 0.0, 0.0), 1, 1, 1001,
        "42f4de1aaff9412f37831115efe3f5b775d16470f4a9d6a283040e4defa111b4",
    ),
    "full-seed-12345": (
        (1000, 32 / 35, 0, 0.75, 0.0, 0.0), 12345, 1, 1001,
        "7b894a4bc3e3f025350b8f10bb344f33a90500a7b5b6be9d8d5dceb426f829fb",
    ),
    "full-spawned-child": (
        (1000, 32 / 35, 0, 0.75, 0.0, 0.0), None, 1, 1001,
        "acded6376a6788732a14c0803176bdf22f90319f4f5052082dd30a09d66194fa",
    ),
    "transient": (
        (1000, 0.5, 100, 0.75, 0.5, 0.125), 7, 1, 1001,
        "4c2312235d49d1d8c7c5624e5313c14533f808cdc29a8076936c73227108969e",
    ),
    # t0 even: the first word sits mid-way through a Philox block
    "odd-offset": (
        (1000, 0.5, 100, 0.75, 0.5, 0.125), 7, 38, 613,
        "dd5293b05a57f03a66098027c93f6bdd1a63a3be4162a2ffdc228b7e67d65c80",
    ),
    # slots past n take the mode-B probability
    "past-n": (
        (1000, 0.5, 100, 0.75, 0.5, 0.125), 7, 900, 1307,
        "31ced70472689740fa149d0584989c11a383d7cf86652c261dfb226080ed1703",
    ),
    "p0-p1": (
        (600, 0.5, 50, 1.0, 0.3, 0.0), 3, 1, 601,
        "c38b0fdf1cc6301debf1e9bb5da2ab71248a688da5f0e99bb0f1aee2f483205c",
    ),
    "p1-past-n": (
        (300, 0.5, 10, 0.0, 0.5, 1.0), 4, 100, 351,
        "a7ccf6bf75f1238e8007f70b31867a5f34ed3f9c7a66330dcf3d82310a5a8479",
    ),
    "p-edges": (
        (400, 0.25, 200, 5e-324, 2**-53, 1 - 2**-53), 5, 3, 402,
        "934f6ecfb18abfa3fe17700d27d13f08444bd3fdd28ea07959b5500a74a8ddf1",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_SLOTS))
def test_sampler_slots_are_pinned(name):
    sched_args, seed, t0, t1, digest = GOLDEN_SLOTS[name]
    if seed is None:
        seed = SeedSequence(12345).spawn(2)[0]
    s1, s2 = ChannelSampler(build_schedule(*sched_args), seed).slots(t0, t1)
    for s in (s1, s2):
        assert s.dtype == np.uint8 and len(s) == t1 - t0
        assert set(np.unique(s).tolist()) <= {0, 1}
    assert hashlib.sha256(s1.tobytes() + s2.tobytes()).hexdigest() == digest


@settings(derandomize=True, max_examples=500)
@given(word=st.integers(0, 2**64 - 1), p=st.floats(0.0, 1.0))
@example(word=0, p=0.0)
@example(word=2**64 - 1, p=1.0)
@example(word=2**11, p=5e-324)
@example(word=2**11, p=2**-53)
@example(word=2**64 - 2**11, p=1 - 2**-53)
@example(word=2**64 - 2**12, p=float(np.nextafter(1.0, 0.0)))
def test_integer_threshold_matches_53_bit_uniform(word, p):
    # the word drawn, plus the two words on either side of the rule's boundary
    k = math.ceil(p * 2**53)
    words = [w for w in (word, (k << 11) - 1, k << 11) if 0 <= w < 2**64]
    out = np.empty(len(words), dtype=bool)
    received(np.array(words, dtype=np.uint64), p, out)
    assert out.tolist() == [(w >> 11) * 2.0**-53 >= p for w in words]
