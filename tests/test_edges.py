import ast
import json
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from bpecsim import protocol
from bpecsim.channel import ChannelSampler, build_schedule
from bpecsim.protocol import (
    Phase,
    ProtocolError,
    Scheme,
    plan_scheme,
    run_trial,
)
from bpecsim.rates import ModeParams


def test_intermodal_plan_with_empty_first_mode():
    # eta = 0 degenerates to a single fresh round over the whole block
    p = ModeParams(0.5, 0.2, 0.0)
    n = 4000
    plan = plan_scheme(p, n, Scheme.INTER_MODAL, 2.0)
    assert plan.m1 == 0
    assert plan.tail1 > 0
    stats = run_trial(p, n, 0, 0.0, plan, seed=4)
    assert stats.decode_ok_1 and stats.decode_ok_2
    # close to the single-mode feedback sum capacity at delta_b
    assert stats.sum_rate > 0.8 * 2 * 1.2 * 0.8 / 2.2


def test_fresh_tail_phase_is_reported():
    p = ModeParams(0.75, 0.0, 1 / 6)
    n = 3000
    plan = plan_scheme(p, n, Scheme.INTER_MODAL, 1.0)
    assert plan.tail1 > 0
    seen = set()

    def watch(t, action, tx):
        seen.add(tx.phase)

    run_trial(p, n, 0, 0.0, plan, seed=8, observer=watch)
    assert Phase.FRESH_TAIL in seen
    assert {Phase.RAW1, Phase.RAW2, Phase.MULTICAST} <= seen


def test_intramodal_phase_follows_round_b_after_cutoff():
    # mode A fully erased cuts round A off at n_a = 200; mode B is clean
    p = ModeParams(0.75, 0.0, 0.5)
    n = 400
    plan = plan_scheme(p, n, Scheme.INTRA_MODAL, 0.0)
    assert plan.guard == 0 and plan.run_b == 100
    clean = np.array([0] * 200 + [1] * 200, dtype=np.uint8)
    phases = {}

    def watch(t, action, tx):
        phases[t] = tx.phase

    stats = run_trial(p, n, 0, 0.0, plan, seed=5, channel=(clean, clean), observer=watch)
    assert stats.phase_boundaries["a_multicast"] is None
    assert stats.phase_boundaries["b_raw1"] == 300
    assert all(phases[t] is Phase.RAW1 for t in range(200, 299))
    assert all(phases[t] is Phase.RAW2 for t in range(300, 399))
    assert phases[399] is Phase.DONE


def test_run_trial_validates_inputs():
    p = ModeParams(0.75, 0.0, 32 / 35)
    plan = plan_scheme(p, 1000, Scheme.INTER_MODAL, 1.0)
    with pytest.raises(ValueError):
        run_trial(p, 2000, 0, 0.0, plan, seed=1)  # plan built for another n
    with pytest.raises(ValueError):
        run_trial(p, 1000, 0, 0.0, plan, seed=1, channel=(np.ones(5), np.ones(5)))
    with pytest.raises(ValueError):
        run_trial(p, 1000, 0, 0.0, plan, seed=1, driver="turbo")
    with pytest.raises(ValueError):
        run_trial(
            p, 1000, 0, 0.0, plan, seed=1, driver="batched",
            observer=lambda *a: None,
        )
    with pytest.raises(ProtocolError):
        nofb = plan_scheme(p, 1000, Scheme.NO_FEEDBACK, 1.0)
        run_trial(p, 1000, 0, 0.0, nofb, seed=1, run_to_completion=True)


@pytest.mark.parametrize(
    "scheme, options, error, message",
    [
        (Scheme.INTER_MODAL, {"driver": "turbo"}, ValueError, "unknown driver"),
        (Scheme.INTER_MODAL, {"driver": "batched", "observer": lambda *a: None}, ValueError,
         "need the reference driver"),
        (Scheme.INTER_MODAL, {"driver": "batched", "run_to_completion": True}, ValueError,
         "need the reference driver"),
        (Scheme.NO_FEEDBACK, {"run_to_completion": True}, ProtocolError, "no queues to drain"),
        (Scheme.NO_FEEDBACK, {"observer": lambda *a: None}, ValueError, "no per-slot driver"),
        (Scheme.NO_FEEDBACK, {"driver": "reference"}, ValueError, "no per-slot driver"),
    ],
)
def test_run_trial_checks_options_before_sampling(monkeypatch, scheme, options, error, message):
    def no_sampler(*args, **kwargs):
        raise AssertionError("the channel was sampled before the options were checked")

    monkeypatch.setattr(protocol, "ChannelSampler", no_sampler)
    p = ModeParams(0.75, 0.0, 32 / 35)
    plan = plan_scheme(p, 100_000, scheme, 3.0)
    with pytest.raises(error, match=message):
        run_trial(p, 100_000, 0, 0.0, plan, seed=1, **options)


@pytest.mark.parametrize("bad", [2, 0.5, -1])
@pytest.mark.parametrize("driver", ["batched", "reference"])
def test_injected_channel_must_hold_only_0_and_1(bad, driver):
    p = ModeParams(0.75, 0.0, 32 / 35)
    plan = plan_scheme(p, 35, Scheme.INTER_MODAL, 0.0)
    s1 = [1] * 35
    s2 = [1] * 34 + [bad]
    with pytest.raises(ValueError, match="only 0 and 1"):
        run_trial(p, 35, 0, 0.0, plan, seed=1, channel=(s1, s2), driver=driver)


@pytest.mark.parametrize("driver", ["batched", "reference"])
@pytest.mark.parametrize("shape", [(35, 1), (1, 35), (35, 2)])
def test_injected_channel_must_be_1d(driver, shape):
    # an all-erased (n, 1) channel once decoded both users in the reference driver
    p = ModeParams(0.75, 0.0, 32 / 35)
    plan = plan_scheme(p, 35, Scheme.INTER_MODAL, 0.0)
    erased = np.zeros(shape, dtype=np.uint8)
    with pytest.raises(ValueError, match="1-D of length n"):
        run_trial(p, 35, 0, 0.0, plan, seed=1, channel=(erased, erased), driver=driver)


def test_injected_channel_accepts_python_bools():
    p = ModeParams(0.75, 0.0, 32 / 35)
    plan = plan_scheme(p, 35, Scheme.INTER_MODAL, 0.0)
    flags = [t % 3 != 0 for t in range(35)]
    ints = np.array(flags, dtype=np.uint8)
    for driver in ("batched", "reference"):
        as_bools = run_trial(p, 35, 0, 0.0, plan, seed=1, channel=(flags, flags), driver=driver)
        as_ints = run_trial(p, 35, 0, 0.0, plan, seed=1, channel=(ints, ints), driver=driver)
        assert repr(as_bools) == repr(as_ints)


def test_sampler_rejects_bad_ranges():
    sampler = ChannelSampler(build_schedule(10, 0.5, 0, 0.5, 0.0, 0.0), seed=1)
    with pytest.raises(IndexError):
        sampler.slots(0, 5)
    with pytest.raises(IndexError):
        sampler.slots(5, 3)


def test_region_json_null_intermodal_for_reversed_deltas(capsys):
    from bpecsim.cli import main

    code = main(["region", "0.1", "0.6", "0.5", "--format", "json"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["inter_modal_sum"] is None
    assert report["outer_bound_achievable"] is False


def test_package_has_no_assert_statements():
    # invariants must raise; an assert vanishes under python -O
    package = pathlib.Path(__file__).resolve().parents[1] / "src" / "bpecsim"
    sources = sorted(package.glob("*.py"))
    assert sources
    for path in sources:
        tree = ast.parse(path.read_text(), filename=str(path))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not lines, f"{path.name}: assert on lines {lines}"


def test_console_entry_point_runs():
    out = subprocess.run(
        [sys.executable, "-m", "bpecsim.cli", "region", "0.75", "0", "0.5"],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0
    assert "max_sum_rate=" in out.stdout
