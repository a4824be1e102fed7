"""Differential tests: the per-slot reference driver is the oracle for the
batched driver.  Both must produce the same ``TrialStats``, down to its repr
(field values, their types and the order of the phase-boundary keys), on
random parameter draws and on adversarial injected channels."""
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bpecsim.channel import floor_index
from bpecsim.montecarlo import default_transient_length
from bpecsim.protocol import Scheme, plan_scheme, run_trial
from bpecsim.rates import ModeParams, UnsupportedParametersError

PROB = st.floats(0.0, 1.0)


# the no-feedback baseline has no per-slot reference driver to compare
FEEDBACK_SCHEMES = (Scheme.INTER_MODAL, Scheme.INTRA_MODAL)


def plans(p, n, guard_coeff):
    """Each feedback scheme's plan for the draw; inter only where it can be planned."""
    out = []
    for scheme in FEEDBACK_SCHEMES:
        try:
            out.append(plan_scheme(p, n, scheme, guard_coeff))
        except UnsupportedParametersError:
            if scheme is not Scheme.INTER_MODAL:
                raise
    return out


def assert_drivers_agree(p, n, n_t, delta_t, plan, seed, channel=None):
    ref = run_trial(p, n, n_t, delta_t, plan, seed, channel=channel, driver="reference")
    bat = run_trial(p, n, n_t, delta_t, plan, seed, channel=channel, driver="batched")
    assert repr(ref) == repr(bat), (p, n, n_t, delta_t, plan.scheme, seed)


# n log-uniform on [1, 1e5]: the README blocklength and every scale below it
LOG_N = st.floats(0.0, 5.0).map(lambda x: int(10**x))


@st.composite
def trial_params(draw, blocklengths=st.integers(1, 2000)):
    p = ModeParams(draw(PROB), draw(PROB), draw(PROB))
    n = draw(blocklengths)
    room = n - floor_index(p.eta * n)
    n_t = draw(st.integers(0, room))
    return p, n, n_t, draw(PROB), draw(st.floats(0.0, 5.0))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(params=trial_params(LOG_N), seed=st.integers(0, 2**32 - 1))
@example(params=(ModeParams(0.75, 0.0, 32 / 35), 1, 0, 0.0, 0.0), seed=0)
@example(params=(ModeParams(0.75, 0.0, 32 / 35), 2000, 0, 0.0, 3.0), seed=12345)
@example(params=(ModeParams(0.9, 0.1, 0.8), 1500, 40, 0.5, 1.0), seed=3)
@example(params=(ModeParams(0.5, 0.5, 1.0), 700, 0, 1.0, 0.0), seed=1)
@example(params=(ModeParams(0.3, 0.6, 0.0), 900, 100, 1.0, 0.5), seed=2)
def test_drivers_agree_on_random_draws(params, seed):
    p, n, n_t, delta_t, guard_coeff = params
    for plan in plans(p, n, guard_coeff):
        assert_drivers_agree(p, n, n_t, delta_t, plan, seed)


def _channel(pattern, n, n_a, k, w):
    """Slot states (s1, s2) for one adversarial pattern.  The one useful slot
    is k slots after n_a (cyclically).  The erasures around n_a hit both users
    in the w slots before it and user 2 in the w slots from it on, so a round
    that must stop at n_a runs out of slots just as slot n_a turns useful."""
    t = np.arange(n)
    if pattern == "all_erased":
        return np.zeros(n, np.uint8), np.zeros(n, np.uint8)
    if pattern == "all_received":
        return np.ones(n, np.uint8), np.ones(n, np.uint8)
    if pattern == "alternating":
        return (t % 2 == 0).astype(np.uint8), (t % 2 == 1).astype(np.uint8)
    if pattern == "one_useful_slot":
        s1 = np.zeros(n, np.uint8)
        s2 = np.zeros(n, np.uint8)
        s1[(n_a + k) % n] = 1
        s2[(n_a + k) % n] = k % 3 != 0
        return s1, s2
    s1 = ((t < n_a - w) | (t >= n_a)).astype(np.uint8)
    s2 = ((t < n_a - w) | (t >= n_a + w)).astype(np.uint8)
    return s1, s2


@pytest.mark.parametrize(
    "pattern",
    ["all_erased", "all_received", "alternating", "one_useful_slot", "boundary_erasures"],
)
@settings(derandomize=True, max_examples=25, deadline=None)
@given(
    params=trial_params(),
    k=st.integers(-2, 2000),
    width=st.floats(0.0, 0.5),
)
@example(params=(ModeParams(0.0, 0.0, 0.5), 100, 0, 0.0, 0.0), k=0, width=0.01)
@example(params=(ModeParams(0.5, 0.2, 0.5), 1000, 20, 0.9, 1.0), k=-1, width=0.05)
def test_drivers_agree_on_adversarial_channels(pattern, params, k, width):
    p, n, n_t, delta_t, guard_coeff = params
    n_a = floor_index(p.eta * n)
    channel = _channel(pattern, n, n_a, k, max(1, int(width * n)))
    for plan in plans(p, n, guard_coeff):
        assert_drivers_agree(p, n, n_t, delta_t, plan, 0, channel=channel)


# name -> (delta_a, delta_b, eta, n, transient, delta_t, scheme, guard_coeff, seed,
#          (decode_ok_1, decode_ok_2)); a transient of None takes the CLI default
REALISTIC_DRAWS = {
    "inter-capacity": (0.75, 0.0, 32 / 35, 10_000, 0, 0.0, Scheme.INTER_MODAL, 3.0, 12345,
                       (True, True)),
    # the README simulate point
    "inter-readme": (0.75, 0.0, 32 / 35, 100_000, 0, 0.0, Scheme.INTER_MODAL, 3.0, 12345,
                     (True, True)),
    # user 1 misses the deadline in the fresh-tail round
    "inter-transient-tail-fails": (0.75, 0.125, 0.5, 20_000, None, 0.125, Scheme.INTER_MODAL,
                                   3.0, 17, (False, True)),
    "inter-no-guard-fails": (0.75, 0.0, 32 / 35, 10_000, 0, 0.0, Scheme.INTER_MODAL, 0.0, 0,
                             (False, False)),
    "intra-transient": (0.6, 0.2, 0.5, 50_000, None, 0.2, Scheme.INTRA_MODAL, 3.0, 3,
                        (True, True)),
    # round A is cut off at the mode boundary; only user 2 decodes
    "intra-cutoff-fails": (0.5, 0.3, 0.6, 30_000, None, 0.3, Scheme.INTRA_MODAL, 0.0, 6,
                           (False, True)),
}


@pytest.mark.parametrize("name", sorted(REALISTIC_DRAWS))
def test_drivers_agree_at_realistic_blocklengths(name):
    delta_a, delta_b, eta, n, n_t, delta_t, scheme, guard_coeff, seed, decoded = (
        REALISTIC_DRAWS[name]
    )
    p = ModeParams(delta_a, delta_b, eta)
    if n_t is None:
        n_t = default_transient_length(n, eta)
    plan = plan_scheme(p, n, scheme, guard_coeff)
    ref = run_trial(p, n, n_t, delta_t, plan, seed, driver="reference")
    bat = run_trial(p, n, n_t, delta_t, plan, seed, driver="batched")
    assert repr(ref) == repr(bat)
    assert (ref.decode_ok_1, ref.decode_ok_2) == decoded
