"""Every channel realization at small n: the batched driver against the
per-slot reference, row by row.

A slot has four link states, so n slots have 4**n realizations.  One
``_run_block`` call runs all of them as the rows of one block, and each row
must give what an unobserved reference ``run_trial`` gives on that row's
injected channel: both decode flags, every phase boundary (-1 in the block,
None in ``TrialStats``) and the first round's backlogs.  A quarter of the
rows also run observed, which must give the same stats.  The plans are built
by hand so that small n still holds a chained tail round (inter), a round
that waits for its start slot (intra) and an empty round that is done before
it starts, so the slots between the round before and its start stay idle
(intra-empty-b).
"""
import numpy as np
import pytest

from bpecsim.protocol import Action, Phase, Scheme, SchemePlan, _run_block, run_trial
from bpecsim.rates import ModeParams

PLANS = {
    "inter": (
        ModeParams(0.5, 0.5, 0.5),
        SchemePlan(
            scheme=Scheme.INTER_MODAL, n=6, n_a=3, m1=2, m2=1, alpha=1.0, guard=0,
            tail1=1, tail2=1,
        ),
    ),
    "intra": (
        ModeParams(0.5, 0.5, 0.6),
        SchemePlan(
            scheme=Scheme.INTRA_MODAL, n=5, n_a=3, m1=2, m2=2, alpha=0.0, guard=0,
            run_a=1, run_b=1,
        ),
    ),
    "intra-empty-b": (
        ModeParams(0.5, 0.5, 0.6),
        SchemePlan(
            scheme=Scheme.INTRA_MODAL, n=5, n_a=3, m1=1, m2=1, alpha=0.0, guard=0,
            run_a=1, run_b=0,
        ),
    ),
}


def every_realization(n):
    """(4**n, n) bool link states: row r's slot t has bits 2t and 2t + 1 of r."""
    rows = np.arange(4**n)[:, None]
    shifts = 2 * np.arange(n)
    return (rows >> shifts) & 1 == 1, (rows >> (shifts + 1)) & 1 == 1


def observed_run(p, plan, channel):
    """An observed reference trial: its stats, what the observer got per slot
    and the observed transmitter."""
    got = []
    txs = set()

    def record(t, action, tx):
        assert t == len(got)
        got.append(action)
        txs.add(tx)

    stats = run_trial(p, plan.n, 0, 0.0, plan, 1, channel=channel, observer=record)
    (tx,) = txs
    return stats, got, tx


def idle_slots(plan, boundaries):
    """The slots where a round waits for its start after the round before it ended."""
    rounds = plan.rounds()
    idle = []
    for before, spec in zip(rounds, rounds[1:]):
        if not spec.chained:
            end = boundaries[before.label + "multicast"]
            idle += range(before.limit if end is None else end, spec.start)
    return idle


@pytest.mark.parametrize("name", PLANS)
def test_every_realization_matches_the_reference(name):
    p, plan = PLANS[name]
    n = plan.n
    b1, b2 = every_realization(n)
    out = _run_block(plan, b1, b2)
    first_raw2 = plan.rounds()[0].label + "raw2"
    ok = out.decode_ok.T.tolist()
    backlog = out.backlog.T.tolist()
    ends = {key: v.tolist() for key, v in out.boundaries.items()}
    for r in range(len(b1)):
        channel = (b1[r].astype(np.uint8), b2[r].astype(np.uint8))
        stats = run_trial(p, n, 0, 0.0, plan, 1, channel=channel, driver="reference")
        boundaries = {key: None if v[r] < 0 else v[r] for key, v in ends.items()}
        expected = (ok[r], boundaries, backlog[r] if ends[first_raw2][r] >= 0 else [None, None])
        got = (
            [stats.decode_ok_1, stats.decode_ok_2],
            stats.phase_boundaries,
            [stats.backlog_1, stats.backlog_2],
        )
        assert got == expected, (name, b1[r].tolist(), b2[r].tolist())
        if (b1[r].sum() + 2 * b2[r].sum()) % 4 == 0:
            # a quarter of the rows, with every link state in every slot: the
            # observer gets None on the idle slots and an Action on every
            # other slot until the last round ends or the deadline comes
            observed, sent, tx = observed_run(p, plan, channel)
            assert observed == stats, (name, r)
            assert tx.phase is Phase.DONE, (name, r)  # also where a deadline cut a round
            last = stats.phase_boundaries[plan.rounds()[-1].label + "multicast"]
            assert len(sent) == (n if last is None else last), (name, r)
            idle = [t for t, action in enumerate(sent) if action is None]
            assert idle == idle_slots(plan, stats.phase_boundaries), (name, r)
            assert all(type(action) is Action for action in sent if action is not None)
    # some rows send XORs, every phase ends in some rows and not in others,
    # and each user decodes in some rows and fails in others; a round with no
    # packets ends at its start in every row, so its phases are left out
    assert ((out.boundaries[first_raw2] >= 0) & (out.backlog.sum(axis=0) > 0)).any()
    for spec in plan.rounds():
        if spec.m1 or spec.m2:
            for phase in ("raw1", "raw2", "multicast"):
                v = out.boundaries[spec.label + phase]
                assert 0 < (v >= 0).sum() < len(b1), spec.label + phase
    assert (0 < out.decode_ok.sum(axis=1)).all() and (out.decode_ok.sum(axis=1) < len(b1)).all()
