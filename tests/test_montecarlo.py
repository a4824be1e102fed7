import math
import os
import sys
import threading
import warnings

import numpy as np

import pytest

from bpecsim import cli, montecarlo
from bpecsim.montecarlo import (
    AggregateStats,
    convergence_sweep,
    default_transient_length,
    simulate,
    trial_seed,
)
from bpecsim.protocol import ProtocolError, Scheme, plan_scheme, run_trial
from bpecsim.rates import ModeParams, max_sum_rate, outer_region

CAPACITY = ModeParams(0.75, 0.0, 32 / 35)


def test_simulate_erasure_free_is_exact():
    p = ModeParams(0.0, 0.0, 0.5)
    agg = simulate(p, 1000, 0, 0.0, Scheme.INTER_MODAL, 0.0, trials=8, master_seed=1)
    assert agg.failure_rate_1 == agg.failure_rate_2 == 0.0
    assert agg.mean_sum_rate > 0.99


def test_simulate_deterministic_repeat():
    a = simulate(CAPACITY, 5000, 0, 0.0, Scheme.INTER_MODAL, 3.0, 20, master_seed=99)
    b = simulate(CAPACITY, 5000, 0, 0.0, Scheme.INTER_MODAL, 3.0, 20, master_seed=99)
    assert a == b
    # the seed reaches the channel realization (aggregate numbers may coincide
    # when every trial decodes, so compare trial-level state)
    plan = plan_scheme(CAPACITY, 5000, Scheme.INTER_MODAL, 3.0)
    t99 = run_trial(CAPACITY, 5000, 0, 0.0, plan, trial_seed(99, 0))
    t98 = run_trial(CAPACITY, 5000, 0, 0.0, plan, trial_seed(98, 0))
    assert t99.phase_boundaries != t98.phase_boundaries


def test_simulate_rejects_zero_trials():
    with pytest.raises(ValueError):
        simulate(CAPACITY, 1000, 0, 0.0, Scheme.INTER_MODAL, 3.0, 0, 1)


def test_ci_contains_mean():
    agg = simulate(CAPACITY, 2000, 0, 0.0, Scheme.INTER_MODAL, 2.0, 30, master_seed=5)
    lo, hi = agg.sum_rate_ci95
    assert lo <= agg.mean_sum_rate <= hi


def test_guard_reduces_failure_rate():
    bare = simulate(CAPACITY, 10_000, 0, 0.0, Scheme.INTER_MODAL, 0.0, 100, 31)
    guarded = simulate(CAPACITY, 10_000, 0, 0.0, Scheme.INTER_MODAL, 3.0, 100, 31)
    assert bare.failure_rate > guarded.failure_rate


def test_mean_rate_statistically_below_outer_bound():
    cases = [
        (CAPACITY, Scheme.INTER_MODAL),
        (CAPACITY, Scheme.INTRA_MODAL),
        (CAPACITY, Scheme.NO_FEEDBACK),
        (ModeParams(0.6, 0.2, 0.5), Scheme.INTER_MODAL),
        (ModeParams(0.75, 0.125, 0.7), Scheme.INTER_MODAL),
    ]
    for p, scheme in cases:
        agg = simulate(p, 20_000, 0, 0.0, scheme, 3.0, 40, master_seed=77)
        outer = max_sum_rate(outer_region(p))
        half = (agg.sum_rate_ci95[1] - agg.sum_rate_ci95[0]) / 2
        assert agg.mean_sum_rate <= outer + 3 * half + 1e-9


def test_empirical_erasure_within_binomial_bounds():
    p = ModeParams(0.75, 0.3, 0.5)
    n, n_t, d_t = 10_000, 500, 0.4
    plan = plan_scheme(p, n, Scheme.INTER_MODAL, 3.0)
    lengths = {"A": 5000, "T": 500, "B": 4500}
    deltas = {"A": 0.75, "T": 0.4, "B": 0.3}
    violations = 0
    checks = 0
    for k in range(100):
        stats = run_trial(p, n, n_t, d_t, plan, trial_seed(812, k))
        for key, d in deltas.items():
            bound = 4 * math.sqrt(d * (1 - d) / lengths[key])
            for e in stats.empirical_erasure[key]:
                checks += 1
                if abs(e - d) > bound:
                    violations += 1
    assert violations <= 0.01 * checks


def test_convergence_sweep_shapes_and_direction():
    rows = convergence_sweep(
        CAPACITY, Scheme.INTER_MODAL, [1000, 10_000], trials=30, master_seed=17,
        n_t=0, delta_t=0.0,
    )
    assert [r[0] for r in rows] == [1000, 10_000]
    gap_small = abs(rows[0][1] - 0.4)
    gap_large = abs(rows[1][1] - 0.4)
    assert gap_large < gap_small
    single = convergence_sweep(
        CAPACITY, Scheme.INTER_MODAL, [2000], trials=5, master_seed=3, n_t=0, delta_t=0.0
    )
    assert len(single) == 1
    with pytest.raises(ValueError):
        convergence_sweep(CAPACITY, Scheme.INTER_MODAL, [100, 100], 5, 1)


def test_default_transient_length_clamped():
    assert default_transient_length(1000, 32 / 35) == 1000 - 914
    assert default_transient_length(1_000_000, 0.5) == 10_000
    assert default_transient_length(10, 1.0) == 0


def _force_workers(monkeypatch, k):
    monkeypatch.setattr(montecarlo, "_worker_count", lambda trials, n: k)


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("scheme", list(Scheme))
@pytest.mark.parametrize("trials, guard", [(7, 3.0), (1, 3.0), (7, 0.0)])
def test_worker_count_leaves_stats_and_report_bytes_unchanged(
    monkeypatch, tmp_path, scheme, trials, guard
):
    argv = [
        "simulate", "--delta-a", "0.75", "--delta-b", "0", "--eta", repr(32 / 35),
        "--n", "2000", "--n-t", "0", "--scheme", scheme.value, "--trials", str(trials),
        "--seed", "41", "--guard-coeff", repr(guard),
    ]
    stats, reports = [], []
    for k in (1, 2, 3):
        _force_workers(monkeypatch, k)
        stats.append(simulate(CAPACITY, 2000, 0, 0.0, scheme, guard, trials, 41))
        out = tmp_path / f"report-{k}.json"
        assert cli.main(argv + ["--out", str(out)]) == 0
        reports.append(out.read_bytes())
        _assert_no_child_left()
    assert stats[0] == stats[1] == stats[2]
    assert reports[0] == reports[1] == reports[2]
    if guard == 0.0:
        # decode failures fall in the first and the last chunk of each split
        plan = plan_scheme(CAPACITY, 2000, scheme, guard)
        trial = [run_trial(CAPACITY, 2000, 0, 0.0, plan, trial_seed(41, i)) for i in range(trials)]
        failed = [i for i, t in enumerate(trial) if not (t.decode_ok_1 and t.decode_ok_2)]
        assert failed[0] < 2 and failed[-1] >= 4


def _failing_block_keys(monkeypatch, index, fail):
    real = montecarlo._block_keys

    def block_keys(master_seed, lo, hi):  # simulate calls it once per block
        if lo <= index < hi:
            fail()
        return real(master_seed, lo, hi)

    monkeypatch.setattr(montecarlo, "_block_keys", block_keys)


@pytest.mark.parametrize("index", [1, 6])  # in the parent's chunk, in a child's
def test_trial_error_reaches_caller_and_children_are_reaped(monkeypatch, index):
    def fail():
        raise ProtocolError(f"trial {index} failed")

    _force_workers(monkeypatch, 2)
    _failing_block_keys(monkeypatch, index, fail)
    with pytest.raises(ProtocolError, match=f"trial {index} failed") as excinfo:
        simulate(CAPACITY, 1000, 0, 0.0, Scheme.INTER_MODAL, 3.0, 8, 5)
    _assert_no_child_left()
    if index == 6:
        # the child's traceback, pointing at the trial code, is the cause
        assert "in fail" in str(excinfo.value.__cause__)


class _TwoArgError(Exception):
    """Pickles, but cannot be unpickled: it is rebuilt from one argument."""

    def __init__(self, what, where):
        super().__init__(f"{what} at {where}")


def _raise_local():
    class LocalError(Exception):  # a class defined in a function cannot be pickled
        pass

    raise LocalError("local trouble")


def _raise_two_arg():
    raise _TwoArgError("two-arg trouble", "slot 3")


@pytest.mark.parametrize(
    "fail, text",
    [(_raise_local, "LocalError: local trouble"),
     (_raise_two_arg, "_TwoArgError: two-arg trouble at slot 3")],
)
def test_child_error_that_cannot_cross_the_pipe_keeps_its_traceback(monkeypatch, fail, text):
    _force_workers(monkeypatch, 2)
    _failing_block_keys(monkeypatch, 6, fail)
    with pytest.raises(RuntimeError, match="trial worker failed") as excinfo:
        simulate(CAPACITY, 1000, 0, 0.0, Scheme.INTER_MODAL, 3.0, 8, 5)
    assert text in str(excinfo.value) and f"in {fail.__name__}" in str(excinfo.value)
    _assert_no_child_left()


def test_child_that_dies_without_result_raises_runtime_error(monkeypatch):
    _force_workers(monkeypatch, 2)
    _failing_block_keys(monkeypatch, 6, lambda: os._exit(3))
    with pytest.raises(RuntimeError, match="exit code 3"):
        simulate(CAPACITY, 1000, 0, 0.0, Scheme.INTER_MODAL, 3.0, 8, 5)
    _assert_no_child_left()


class _Forked(BaseException):
    pass


def _forbid_fork(monkeypatch):
    def fork():
        raise _Forked

    monkeypatch.setattr(os, "fork", fork)


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_failed_fork_closes_its_pipe_and_reaps_earlier_children(monkeypatch):
    real_fork, forks = os.fork, []

    def fork():  # the second fork fails, with an error that is not an OSError
        forks.append(1)
        if len(forks) == 2:
            raise _Forked
        return real_fork()

    _force_workers(monkeypatch, 3)
    monkeypatch.setattr(os, "fork", fork)
    open_fds = len(os.listdir("/proc/self/fd"))
    with pytest.raises(_Forked):
        simulate(CAPACITY, 1000, 0, 0.0, Scheme.INTER_MODAL, 3.0, 9, 5)
    assert len(os.listdir("/proc/self/fd")) == open_fds
    _assert_no_child_left()


def _modeled_trials(n, forks_worth):
    """Trials of length n that the cost model puts at forks_worth fork costs."""
    per_trial = montecarlo._TRIAL_S + n * montecarlo._SLOT_S
    return math.ceil(forks_worth * montecarlo._FORK_S / per_trial)


def test_fork_only_when_it_pays_and_no_other_thread_runs(monkeypatch):
    _forbid_fork(monkeypatch)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    n = 1000
    # two workers pay from two fork costs of work on
    simulate(CAPACITY, n, 0, 0.0, Scheme.INTER_MODAL, 3.0, _modeled_trials(n, 1.9), 5)
    trials = _modeled_trials(n, 2.1)

    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        simulate(CAPACITY, n, 0, 0.0, Scheme.INTER_MODAL, 3.0, trials, 5)
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()

    with pytest.raises(_Forked):
        simulate(CAPACITY, n, 0, 0.0, Scheme.INTER_MODAL, 3.0, trials, 5)


def test_worker_count_follows_work_not_core_count(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
    for n in (1000, 100_000):
        for forks_worth in (1.9, 2.1, 10, 100, 10_000):
            trials = _modeled_trials(n, forks_worth)
            work = trials * (montecarlo._TRIAL_S + n * montecarlo._SLOT_S)
            k = montecarlo._worker_count(trials, n)
            # the k-th worker pays for its fork, a (k + 1)-th would not
            assert k == 1 or k * (k - 1) * montecarlo._FORK_S < work
            assert k == 64 or (k + 1) * k * montecarlo._FORK_S >= work
    assert montecarlo._worker_count(_modeled_trials(1000, 10), 1000) == 3
    assert montecarlo._worker_count(3, 10**9) == 3  # never more workers than trials
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert montecarlo._worker_count(_modeled_trials(1000, 10_000), 1000) == 2


def test_many_cores_fork_no_more_children_than_the_work_pays_for(monkeypatch):
    real_fork, forks = os.fork, []

    def fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
    monkeypatch.setattr(os, "fork", fork)
    n = 100_000
    trials = _modeled_trials(n, 10)
    forked = simulate(CAPACITY, n, 0, 0.0, Scheme.INTER_MODAL, 3.0, trials, 5)
    assert len(forks) == 2
    _assert_no_child_left()
    _force_workers(monkeypatch, 1)
    assert forked == simulate(CAPACITY, n, 0, 0.0, Scheme.INTER_MODAL, 3.0, trials, 5)


def test_watched_trials_stay_in_process(monkeypatch):
    _forbid_fork(monkeypatch)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    n = 1000
    trials = _modeled_trials(n, 10)
    assert montecarlo._worker_count(trials, n) == 2

    seen = []
    real = montecarlo._block_keys

    def counting_block_keys(master_seed, lo, hi):  # as a tracer's wrapper does
        seen.append(hi - lo)
        return real(master_seed, lo, hi)

    monkeypatch.setattr(montecarlo, "_block_keys", counting_block_keys)
    simulate(CAPACITY, n, 0, 0.0, Scheme.INTER_MODAL, 3.0, trials, 5)
    assert sum(seen) == trials
    monkeypatch.setattr(montecarlo, "_block_keys", real)
    for hook in ("run_trial", "trial_seed"):  # a replaced run_trial or trial_seed counts too
        original = getattr(montecarlo, hook)
        monkeypatch.setattr(montecarlo, hook, lambda *args, **kwargs: None)
        assert montecarlo._worker_count(trials, n) == 1
        monkeypatch.setattr(montecarlo, hook, original)
    monkeypatch.undo()

    old = sys.getprofile()
    sys.setprofile(lambda frame, event, arg: None)
    try:
        assert montecarlo._worker_count(trials, n) == 1
    finally:
        sys.setprofile(old)


def test_fork_after_blas_threads_ran_warns_nothing(monkeypatch):
    # numpy's OpenBLAS pool stops its threads before a fork, so Python 3.12's
    # "process is multi-threaded" DeprecationWarning must not fire here
    a = np.ones((300, 300))
    a @ a
    _force_workers(monkeypatch, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        simulate(CAPACITY, 1000, 0, 0.0, Scheme.INTER_MODAL, 3.0, 4, 5)
    _assert_no_child_left()
