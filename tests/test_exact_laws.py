"""Exact-law oracles for the Monte Carlo path, from the channel keys through
the sampler to the batched driver, at full blocklength.

A no-feedback user decodes when each of its two per-mode streams got at least
its erasure code's size of received slots.  A stream's count is a sum of
independent binomials, one per mode piece it covers, so each user's failure
probability is exact.  The two users own disjoint slots, so their joint law is
the product of their laws.  The settings and seeds were fixed before the first
run.  Each check is a two-sided binomial band with a false-alarm probability
of at most ``FALSE_ALARM``.
"""
import numpy as np
import pytest
from scipy import stats

from bpecsim.montecarlo import _BLOCK_SLOTS, _block_keys
from bpecsim.protocol import Scheme, plan_scheme, run_block
from bpecsim.rates import ModeParams

FALSE_ALARM = 1e-6

# name -> (delta_a, delta_b, eta, n, n_t, delta_t, guard_coeff, trials, seed)
NOFB_SETTINGS = {
    # the simulate-n1e3 benchmark point, with its default 100-slot transient
    "n1e3-guard-3": (0.75, 0.125, 0.5, 1000, 100, 0.5, 3.0, 20_000, 1),
    # the same point without a guard: nearly every trial fails
    "n1e3-no-guard": (0.75, 0.125, 0.5, 1000, 100, 0.5, 0.0, 5_000, 2),
    "n2e3": (0.6, 0.3, 0.4, 2000, 0, 0.3, 0.5, 10_000, 3),
    # mode B never erases, and its short transient always does
    "lossless-b": (0.5, 0.0, 0.3, 1000, 20, 1.0, 0.5, 10_000, 4),
}


def decode_probability(pieces, start, stop, user, fec):
    """P(at least ``fec`` of the user's slots in [start, stop) are received);
    ``pieces`` are (lo, hi, erasure probability) slot ranges, and user 1 owns
    the even slots, user 2 the odd ones."""
    pmf = np.ones(1)
    for lo, hi, delta in pieces:
        slots = np.arange(max(lo, start), min(hi, stop))
        k = int(np.count_nonzero(slots % 2 == user - 1))
        pmf = np.convolve(pmf, stats.binom.pmf(np.arange(k + 1), k, 1.0 - delta))
    return float(pmf[fec:].sum())


def assert_in_band(count, trials, prob, label):
    lo = stats.binom.ppf(FALSE_ALARM / 2, trials, prob)
    hi = stats.binom.isf(FALSE_ALARM / 2, trials, prob)
    assert lo <= count <= hi, f"{label}: {count} of {trials}, expected {prob * trials:.2f}"


@pytest.mark.parametrize("name", sorted(NOFB_SETTINGS))
def test_nofb_decode_law_is_exact(name):
    delta_a, delta_b, eta, n, n_t, delta_t, guard_coeff, trials, seed = NOFB_SETTINGS[name]
    p = ModeParams(delta_a, delta_b, eta)
    plan = plan_scheme(p, n, Scheme.NO_FEEDBACK, guard_coeff)
    n_a = plan.n_a
    pieces = ((0, n_a, delta_a), (n_a, n_a + n_t, delta_t), (n_a + n_t, n, delta_b))
    ok = [
        decode_probability(pieces, 0, n_a, u, plan.fec_a[u - 1])
        * decode_probability(pieces, n_a, n, u, plan.fec_b[u - 1])
        for u in (1, 2)
    ]

    counts = np.zeros((2, 2), dtype=np.int64)  # trials by (decode_ok_1, decode_ok_2)
    rows = _BLOCK_SLOTS // n
    for lo in range(0, trials, rows):
        keys = _block_keys(seed, lo, min(trials, lo + rows))
        ok1, ok2 = run_block(p, n, n_t, delta_t, plan, keys).decode_ok
        np.add.at(counts, (ok1.astype(np.intp), ok2.astype(np.intp)), 1)

    for u in (1, 2):
        fails = int(counts[0].sum() if u == 1 else counts[:, 0].sum())
        assert_in_band(fails, trials, 1.0 - ok[u - 1], f"{name}, user {u} fails")
    for a in (0, 1):
        for b in (0, 1):
            law = (ok[0] if a else 1.0 - ok[0]) * (ok[1] if b else 1.0 - ok[1])
            assert_in_band(int(counts[a, b]), trials, law, f"{name}, decode_ok = {a, b}")
