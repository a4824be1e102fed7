"""Pins on the per-slot reference driver.

The hashes below were recorded from the reference driver's per-slot observer
log ``(t, action, phase)`` followed by the trial's ``TrialStats`` repr.  Any
change to the order of actions, the reported phase, the bits sent or the
stats (including the key order of ``phase_boundaries``) changes them.
"""
import hashlib

import numpy as np
import pytest

from bpecsim.channel import floor_index
from bpecsim.protocol import Scheme, plan_scheme, run_trial
from bpecsim.rates import ModeParams, UnsupportedParametersError

# name -> (delta_a, delta_b, eta, n, n_t, delta_t, scheme, guard_coeff, seed,
#          run_to_completion, injected channel or None)
LOG_CASES = {
    "inter-capacity": (0.75, 0.0, 32 / 35, 35, 0, 0.0, Scheme.INTER_MODAL, 0.0, 0, False, None),
    "inter-clipped-tail": (0.75, 0.0, 1 / 6, 120, 0, 0.0, Scheme.INTER_MODAL, 0.5, 1, False, None),
    "inter-transient": (0.6, 0.2, 0.5, 80, 8, 0.5, Scheme.INTER_MODAL, 1.0, 2, False, None),
    "inter-no-deadline": (0.9, 0.3, 0.5, 60, 0, 0.0, Scheme.INTER_MODAL, 0.0, 3, True, None),
    "intra-plain": (0.6, 0.2, 0.5, 80, 0, 0.0, Scheme.INTRA_MODAL, 0.0, 0, False, None),
    "intra-transient": (0.9, 0.1, 0.8, 64, 4, 0.95, Scheme.INTRA_MODAL, 0.0, 1, False, None),
    "intra-no-deadline": (0.3, 0.8, 0.6, 60, 0, 0.0, Scheme.INTRA_MODAL, 0.0, 2, True, None),
    "intra-empty-b": (0.3, 0.2, 6 / 7, 7, 0, 0.0, Scheme.INTRA_MODAL, 0.0, 4, False, None),
    "intra-empty-b-no-deadline": (
        0.3, 0.2, 6 / 7, 7, 0, 0.0, Scheme.INTRA_MODAL, 0.0, 4, True, None,
    ),
    # mode A fully erased, mode B clean: round A is cut off at n_a = 200
    "intra-cutoff": (
        0.75, 0.0, 0.5, 400, 0, 0.0, Scheme.INTRA_MODAL, 0.0, 5, False,
        ([0] * 200 + [1] * 200, [0] * 200 + [1] * 200),
    ),
}

LOG_SHA256 = {
    "inter-capacity": "78b2f9ee35f219948597a1c86d4fd0d7abb5e187d867757824b475700a74b049",
    "inter-clipped-tail": "20db8c9e996cf06a039f8572d4ded5532beb3f4816de712e14ece40eed7a1dd7",
    "inter-no-deadline": "2d5f1872f3b605e6c6aafd291b1b3d48627c8dcc687f89f5d73c500d3f52ec47",
    "inter-transient": "fced2f45669b701d59d8668860cb6f234b8a67479cea0f33b00c1d4067740910",
    "intra-cutoff": "c75fbff6a9f1af392e86e891a02a28c59472aa9d549bd6745ab9dac9172ff21d",
    "intra-empty-b": "2a005513b41c0258f7826b5d392abd3efbc615de8564515a824e4f011f3cc78b",
    "intra-empty-b-no-deadline": "10c6342fa6b8da44cb0a0d03bdbd0b4ef964cc560a9bf020639f556b9a494714",
    "intra-no-deadline": "f16e79fed3545c62c60b5fb07efc5f53eb7ee919ec69c23bcc49117df40591d2",
    "intra-plain": "3c155172af0af5634ca784aeadec6915a72a24f89dd568572a28eea9e3a4b600",
    "intra-transient": "9b4fdf8b2b7e70e6365ed7e541ab50a9475cb4b16d9d7435cbef6425b1e27456",
}


def observer_log(case) -> str:
    da, db, eta, n, n_t, d_t, scheme, coeff, seed, to_completion, channel = case
    p = ModeParams(da, db, eta)
    plan = plan_scheme(p, n, scheme, coeff)
    if channel is not None:
        channel = tuple(np.array(s, dtype=np.uint8) for s in channel)
    lines = []

    def record(t, action, tx):
        lines.append(f"{t} {action!r} {tx.phase.value}")

    stats = run_trial(
        p, n, n_t, d_t, plan, seed, channel=channel, observer=record,
        run_to_completion=to_completion,
    )
    lines.append(repr(stats))
    return "\n".join(lines)


@pytest.mark.parametrize("name", sorted(LOG_CASES))
def test_reference_observer_log_is_pinned(name):
    log = observer_log(LOG_CASES[name])
    assert hashlib.sha256(log.encode()).hexdigest() == LOG_SHA256[name]


def test_driver_reprs_match_on_edges():
    # repr also compares the key order of phase_boundaries, which == does not
    checked = 0
    for da, db in ((0.75, 0.0), (0.5, 0.5), (1.0, 0.25), (0.2, 0.6), (0.0, 0.0)):
        for eta in (0.0, 0.5, 1.0):
            p = ModeParams(da, db, eta)
            for n in (1, 2, 3, 7, 64):
                room = n - floor_index(eta * n)
                for n_t, d_t in ((0, 0.0), (min(3, room), 0.9)):
                    # the no-feedback baseline has no per-slot reference driver
                    for scheme in (Scheme.INTER_MODAL, Scheme.INTRA_MODAL):
                        for coeff in (0.0, 0.5):
                            try:
                                plan = plan_scheme(p, n, scheme, coeff)
                            except UnsupportedParametersError:
                                continue
                            for seed in (0, 1):
                                ref = run_trial(p, n, n_t, d_t, plan, seed, driver="reference")
                                bat = run_trial(p, n, n_t, d_t, plan, seed, driver="batched")
                                assert repr(ref) == repr(bat), (da, db, eta, n, n_t, scheme, coeff, seed)
                                checked += 1
    assert checked == 960
