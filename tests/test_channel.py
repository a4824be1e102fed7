import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.random import Philox, SeedSequence

from bpecsim import channel
from bpecsim.channel import (
    ChannelSampler,
    Mode,
    ModeKind,
    ModeSchedule,
    build_schedule,
    floor_index,
    sample_block,
    threshold,
)
from bpecsim.montecarlo import _block_keys


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


def test_segments_piecewise():
    # 0-based half-open ranges; 1-based slot t lies in the range with start < t <= stop
    sched = build_schedule(35, 32 / 35, 0, 0.75, 0.0, 0.0)
    segments = [(a, b, m.erasure_prob) for a, b, m in sched.segments()]
    assert segments == [(0, 32, 0.75), (32, 35, 0.0)]
    sched2 = build_schedule(100, 1 / 6, 4, 0.75, 0.3, 0.0)
    assert [(a, b, m.kind) for a, b, m in sched2.segments()] == [
        (0, 16, ModeKind.NONTRANSIENT_A),
        (16, 20, ModeKind.TRANSIENT),
        (20, 100, ModeKind.NONTRANSIENT_B),
    ]
    assert [m.erasure_prob for _, _, m in sched2.segments()] == [0.75, 0.3, 0.0]


def test_sample_slot_degenerate_probs():
    sure = ChannelSampler(build_schedule(50, 1.0, 0, 0.0, 0.0, 0.0), seed=3)
    gone = ChannelSampler(build_schedule(50, 1.0, 0, 1.0, 0.0, 0.0), seed=3)
    for t in range(1, 51):
        assert [s.tolist() for s in sure.slots(t, t + 1)] == [[1], [1]]
        assert [s.tolist() for s in gone.slots(t, t + 1)] == [[0], [0]]


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
        s1, s2 = a.slots(t, t + 1)
        assert (s1.tolist(), s2.tolist()) == ([s1a[t - 1]], [s2a[t - 1]])
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
        sampler.slots(0, 1)
    with pytest.raises(IndexError):
        sampler.slots(5, 4)


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


# The block kernel's contract: sha256 of sample_block(...).tobytes(), the
# (2, T, t1 - t0) bool link states of both users.
# name -> (build_schedule args, _block_keys(12345, 0, T) rows, t0, t1, sha256)
GOLDEN_BLOCKS = {
    # a block of simulate at n = 1e3 with its default transient mode
    "simulate-n1e3-block": (
        (1000, 0.5, 100, 0.75, 0.5, 0.125), 32, 1, 1001,
        "33df444d9d5d36c921ab0af23452540d336182af5adfe8e1cd67135aca6497fc",
    ),
    # the one row of a trial at the README point
    "readme-n1e5-row": (
        (100_000, 32 / 35, 0, 0.75, 0.0, 0.0), 1, 1, 100_001,
        "e7da1564ae656bd6a56bf278ec8bf87d835d2a91cc708bb478e735f260bf01f3",
    ),
    # a p = 1 transient between p < 1 modes, two words into a counter step, past n
    "p1-transient-past-n": (
        (300, 0.4, 30, 0.5, 1.0, 0.25), 5, 2, 351,
        "d4053a979acee8f6271d520936c9020589631673d862b4cf463eb5bae12aa8c2",
    ),
    # a block of the n = 1e3 schedule with a perfect mode B: a fixed trailing piece
    "simulate-n1e3-p0-mode-b": (
        (1000, 0.5, 100, 0.75, 0.5, 0.0), 32, 1, 1001,
        "b1a1b7227e210163d908e1044baf5e6bd53fe6fb3ccfd03cf25b63878908421c",
    ),
    # t0 inside a p = 0 mode A: a fixed leading piece; the transient starts two
    # words into a counter step, and t1 is past n
    "p0-mode-a-t0-inside": (
        (402, 0.5, 20, 0.0, 0.5, 0.25), 3, 37, 450,
        "aa299002c5840ea4f35338881da7643df6c4b9c88dd693ad6dcb73b211f77ce9",
    ),
    # ranges wholly inside fixed pieces: a p = 0 and a p = 1 mode B, and past n
    "p0-mode-b-past-n": (
        (300, 0.5, 10, 0.5, 0.25, 0.0), 2, 200, 420,
        "94cdaa9405b4b52e173b5a6f54c97763a92a91829c248acaf475e19bd48f7d48",
    ),
    "p1-mode-b-past-n": (
        (300, 0.5, 10, 0.5, 0.25, 1.0), 2, 161, 400,
        "00d838a26c2274c5ebe71887d0cac7bf47e85329d838d7f6668ac6ae1d195269",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_BLOCKS))
def test_sample_block_is_pinned(name):
    sched_args, rows, t0, t1, digest = GOLDEN_BLOCKS[name]
    block = sample_block(build_schedule(*sched_args), _block_keys(12345, 0, rows), t0, t1)
    assert block.shape == (2, rows, t1 - t0) and block.dtype == bool
    assert block.flags.c_contiguous and block.view(np.uint8).max() <= 1
    assert hashlib.sha256(block.tobytes()).hexdigest() == digest


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
    for w in (word, (k << 11) - 1, k << 11):
        if 0 <= w < 2**64:
            assert (w >= threshold(p)) == ((w >> 11) * 2.0**-53 >= p)


PROBS = st.one_of(st.sampled_from([0.0, 1.0, 5e-324, 0.5, 1 - 2**-53]), st.floats(0.0, 1.0))


@st.composite
def block_ranges(draw):
    """A small schedule, up to three keys and a slot range that may be empty
    or run past n."""
    n = draw(st.integers(1, 40))
    eta = draw(st.floats(0.0, 1.0))
    n_t = draw(st.integers(0, n - floor_index(eta * n)))
    schedule = build_schedule(n, eta, n_t, draw(PROBS), draw(PROBS), draw(PROBS))
    keys = draw(st.lists(st.tuples(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1)),
                         max_size=3))
    t0 = draw(st.integers(1, n + 10))
    t1 = draw(st.integers(t0, t0 + 50))
    return schedule, keys, t0, t1


def _erasure_prob(schedule, t):
    """Erasure probability of 1-based slot t; slots past n are in mode B."""
    for start, stop, mode in schedule.segments():
        if start < t <= stop:
            return mode.erasure_prob
    return schedule.delta_b


@settings(derandomize=True, max_examples=300, deadline=None)
@given(block_ranges())
# three keys, each row starting two words into a counter step and leaving two
# words of it undrawn
@example(case=(build_schedule(10, 0.5, 0, 0.5, 0.5, 0.5), [(1, 2), (3, 4), (5, 6)], 2, 6))
# two keys, a p = 1 transient between p < 1 modes, t0 two words into a counter
# step and t1 past n
@example(case=(build_schedule(12, 0.25, 4, 0.5, 1.0, 0.25), [(1, 2), (2**64 - 1, 0)], 2, 20))
# a p = 0 first piece, t0 inside it and t1 inside a p = 1 mode B
@example(case=(build_schedule(12, 0.5, 2, 0.0, 0.5, 1.0), [(1, 2), (3, 4)], 3, 10))
# t0 and t1 inside fixed pieces with no random piece between them, past n
@example(case=(build_schedule(10, 0.5, 0, 0.0, 0.5, 1.0), [(5, 6)], 2, 15))
def test_sample_block_matches_a_per_slot_oracle(case):
    schedule, keys, t0, t1 = case
    block = sample_block(schedule, np.array(keys, dtype=np.uint64).reshape(-1, 2), t0, t1)
    assert block.shape == (2, len(keys), t1 - t0) and block.dtype == bool
    for r, key in enumerate(keys):
        words = Philox(key=np.array(key, dtype=np.uint64)).random_raw(2 * t1).tolist()
        for t in range(t0, t1):
            thr = threshold(_erasure_prob(schedule, t))
            for u in range(2):
                assert block[u, r, t - t0] == (words[2 * (t - 1) + u] >= thr)


@pytest.mark.parametrize("t0", [1, 2, 3])  # t0 = 2 starts two words into a counter step
@pytest.mark.parametrize("count", [1, 2, 5])
def test_sample_block_rows_do_not_leak_words_into_each_other(t0, count):
    # a row's draw can stop inside a counter step; the next row's key must not
    # see the words left in the generator's buffer
    schedule = build_schedule(10, 0.5, 0, 0.5, 0.5, 0.5)
    keys = np.array([(1, 2), (2**64 - 1, 7), (0, 2**63)], dtype=np.uint64)
    block = sample_block(schedule, keys, t0, t0 + count)
    for r in range(3):
        assert (block[:, r] == sample_block(schedule, keys[r : r + 1], t0, t0 + count)[:, 0]).all()


def test_sample_block_holds_one_drawn_row_beside_its_words():
    # two rows of 15000 random slots: their words take 480 KB, one row's draw
    # 240 KB, out and the compare 120 KB each; with two draws alive at once,
    # glibc's malloc gave such blocks' memory back and faulted it in each block
    schedule = build_schedule(30_000, 0.5, 0, 0.75, 0.0, 0.0)
    keys = np.array([(1, 2), (3, 4)], dtype=np.uint64)
    sample_block(schedule, keys)
    tracemalloc.start()
    try:
        sample_block(schedule, keys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    words, row, out = 2 * 30_000 * 8, 30_000 * 8, 2 * 2 * 30_000
    assert words + row + out <= peak < words + row + out + 16_384


def test_sample_block_rejects_a_bad_slot_range():
    # the slots of [1, 11) are fixed, so a range there draws no words
    schedule = build_schedule(10, 0.5, 0, 0.0, 0.5, 1.0)
    for keys in (np.array([(1, 2)], dtype=np.uint64), np.empty((0, 2), np.uint64)):
        for t0, t1 in [(0, 1), (0, 0), (-3, 2), (5, 4), (12, 11)]:
            with pytest.raises(IndexError):
                sample_block(schedule, keys, t0, t1)


def test_fixed_slots_draw_no_words(monkeypatch):
    sizes = []

    class Philox(np.random.Philox):  # the state setter checks the class name
        def random_raw(self, size=None, output=True):
            sizes.append(size)
            return super().random_raw(size, output)

    monkeypatch.setattr(channel, "Philox", Philox)
    # the README point: mode B's slots are never erased, so a row draws the
    # 2 n_a words of mode A
    readme = build_schedule(100_000, 32 / 35, 0, 0.75, 0.0, 0.0)
    sample_block(readme, _block_keys(12345, 0, 1))
    assert sizes == [2 * readme.n_a] == [182_856]
    sizes.clear()
    # no random piece: no draw
    fixed = build_schedule(50, 0.5, 10, 0.0, 1.0, 0.0)
    block = sample_block(fixed, _block_keys(12345, 0, 3), 1, 80)
    assert sizes == []
    assert block[:, :, :25].all() and not block[:, :, 25:35].any() and block[:, :, 35:].all()
    # no fixed piece: 2 n words per row, as before
    sample_block(build_schedule(1000, 0.5, 100, 0.75, 0.5, 0.125), _block_keys(12345, 0, 32))
    assert sizes == [2000] * 32


def test_empty_slot_range_is_two_empty_arrays():
    sampler = ChannelSampler(build_schedule(10, 0.5, 0, 0.5, 0.0, 1.0), seed=1)
    for t in (1, 4, 11, 20):
        s1, s2 = sampler.slots(t, t)
        for s in (s1, s2):
            assert s.dtype == np.uint8 and s.shape == (0,)
