"""The benchmark's workloads: inputs from a seed, one pass, and its checks.

Every workload drives bpecsim through its public entry points only:
``bpecsim.cli.main`` with the README flags, and ``bpecsim.protocol.run_trial``.
Entry points are looked up on their modules at call time, so a traced pass
sees the wrappers that ``spans`` installs.

A pass is a list of steps, each one call into the program.  A step returns
``(ops, output, failed)``: the ops it completed, the text it produced (the
runner joins a pass's texts and compares them across passes and against the
recorded digests) and how many of those ops failed a check made here.  The
runner times each step on its own, so that it can measure machine speed
between steps.
"""
from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from functools import partial

import bpecsim.cli
import bpecsim.protocol
from bpecsim.protocol import Scheme
from bpecsim.rates import ModeParams

HEADLINE = (0.75, 0.0, 32.0 / 35.0)  # (delta_a, delta_b, eta) of the README command
GUARD = 3.0
PINNED_SEED = 1

# sha256 of a pass's output at PINNED_SEED, per workload and size, recorded at
# the commit that introduced the benchmark.  A change that alters channel
# realizations, plans or output formatting changes them.
DIGESTS = {
    "simulate-n1e5": {
        "full": "807676998156841241b88c929b7f015ac96c0fc2d7c29d34c6e1ce8531525ee7",
        "tiny": "5dcb4064cee0e78444194027863e12c19290027a3061a5301f1a28bc5cc75da4",
    },
    "simulate-n1e3": {
        "full": "ab3a170ba1ea1b78e3683b621e557e99ea229384f0ce8e0b1b63d5cdbde6bac5",
        "tiny": "f8ff4548ceaa71df96bdbf9bbb104d99a088d519b37ca3ac52d9b3ad7becb166",
    },
    "sweep-eta": {
        "full": "cbfe4d4e4289997a287f6284e569d6a6de34784dd9b9f02f3a2404782c7b0ec0",
        "tiny": "3846a3787f911a12dd7b76bdfc642547ab3f89b78fea61aba867f6c16e5c7e92",
    },
    "reference-oracle": {
        "full": "8479592e3b0fc0e6b98a23bd022567dad1f220654580d63f19963554df2832e2",
        "tiny": "6d59448d37dde4575e0a194bc2b515a7742417b82190fff8296ad5e5814d1d78",
    },
}


def call_cli(argv: list[str]) -> str:
    """Run ``bpecsim <argv>`` in process and return what it wrote to stdout."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = bpecsim.cli.main(argv)
    if code != 0:
        raise RuntimeError(f"bpecsim {' '.join(argv)} exited with {code}")
    return buf.getvalue()


@dataclass(frozen=True)
class Simulate:
    """``bpecsim simulate`` once per scheme; one op is one trial."""

    name: str
    params: tuple[float, float, float]
    n: int
    flags: tuple[str, ...]
    trials: dict  # size -> trials per scheme
    floors: dict  # scheme -> lowest mean / analytic rate a report may have
    schemes: tuple[str, ...] = ("inter", "intra", "nofb")

    def inputs(self, seed: int, size: str) -> list[list[str]]:
        master = random.Random(seed).randrange(1, 2**31)
        delta_a, delta_b, eta = self.params
        return [
            ["simulate", "--delta-a", repr(delta_a), "--delta-b", repr(delta_b),
             "--eta", repr(eta), "--n", str(self.n), *self.flags, "--scheme", scheme,
             "--trials", str(self.trials[size]), "--seed", str(master),
             "--guard-coeff", repr(GUARD), "--out", "-"]
            for scheme in self.schemes
        ]

    def plans(self) -> list[tuple]:
        return [(self.params, self.n, scheme, GUARD) for scheme in self.schemes]

    def steps(self, argvs: list[list[str]]) -> list:
        return [partial(self.step, argv) for argv in argvs]

    def step(self, argv: list[str]) -> tuple[int, str, int]:
        text = call_cli(argv)
        report = json.loads(text)
        trials = report["trials"]
        return trials, text, 0 if self.report_ok(report, argv) else trials

    def report_ok(self, report: dict, argv: list[str]) -> bool:
        """Acceptance-suite bounds, and a floor under the mean, that hold for any seed."""
        lo, hi = report["sum_rate_ci95"]
        half = (hi - lo) / 2
        mean = report["mean_sum_rate"]
        analytic = report["analytic_sum_rate"]
        ok = (
            report["scheme"] == argv[argv.index("--scheme") + 1]
            and report["trials"] == int(argv[argv.index("--trials") + 1])
            # failures <= 5% (criterion 07)
            and report["failure_rate_1"] <= 0.05
            and report["failure_rate_2"] <= 0.05
            # statistically below the outer bound and the analytic rate
            and mean <= report["outer_max_sum_rate"] + 3 * half + 1e-9
            and mean <= analytic + 3 * half + 1e-9
            # and not far below the rate this blocklength reaches
            and mean >= self.floors[report["scheme"]] * analytic - 3 * half - 1e-9
        )
        if self.params == HEADLINE and self.n == 100_000 and report["scheme"] == "inter":
            ok = ok and mean >= 0.388  # criterion 07 at the capacity point
        return ok


@dataclass(frozen=True)
class Sweep:
    """``bpecsim sweep`` on a fine eta grid; one op is one CSV row."""

    name: str
    pairs: tuple[tuple[float, float], ...]
    grid_step: dict  # size -> eta grid step

    def inputs(self, seed: int, size: str) -> list[list[str]]:
        step = self.grid_step[size]
        # a start offset below one step, so no two seeds share a grid point
        start = random.Random(seed).uniform(0.0, step)
        return [
            ["sweep", "--delta-a", repr(a), "--delta-b", repr(b),
             "--eta-grid", f"{start!r}:1:{step!r}", "--out", "-"]
            for a, b in self.pairs
        ]

    def plans(self) -> list[tuple]:
        return []

    def steps(self, argvs: list[list[str]]) -> list:
        return [partial(self.step, argv) for argv in argvs]

    def step(self, argv: list[str]) -> tuple[int, str, int]:
        text = call_cli(argv)
        lines = text.splitlines()
        if lines[0] != bpecsim.cli.CSV_HEADER:
            raise RuntimeError(f"unexpected CSV header {lines[0]!r}")
        return len(lines) - 1, text, sum(not row_ok(line) for line in lines[1:])


def row_ok(line: str) -> bool:
    """The outer sum is the tightest bound and no achievable sum exceeds it."""
    _, outer, c1, c2, c3, *achievable = line.split(",")
    outer = float(outer)
    sums = [float(x) for x in achievable if x]
    return outer <= min(float(c1), float(c2), float(c3)) + 1e-9 and all(
        outer >= s - 1e-9 for s in sums
    )


@dataclass(frozen=True)
class ReferenceOracle:
    """Per-slot reference driver against the batched driver on the same seeds;
    one op is one reference trial whose ``TrialStats`` equal the batched ones."""

    name: str
    n: dict  # size -> blocklength
    seeds_per_scheme: int
    schemes: tuple[str, ...] = ("inter", "intra")

    def inputs(self, seed: int, size: str) -> tuple[int, list[int]]:
        rng = random.Random(seed)
        return self.n[size], [rng.randrange(2**32) for _ in range(self.seeds_per_scheme)]

    def plans(self) -> list[tuple]:
        return [(HEADLINE, self.n["full"], scheme, GUARD) for scheme in self.schemes]

    def steps(self, inputs: tuple[int, list[int]]) -> list:
        n, seeds = inputs
        return [partial(self.step, scheme, n, seeds) for scheme in self.schemes]

    def step(self, scheme: str, n: int, seeds: list[int]) -> tuple[int, str, int]:
        p = ModeParams(*HEADLINE)
        plan = bpecsim.protocol.plan_scheme(p, n, Scheme(scheme), GUARD)
        failed = 0
        out = []
        for seed in seeds:
            ref = bpecsim.protocol.run_trial(p, n, 0, 0.0, plan, seed, driver="reference")
            fast = bpecsim.protocol.run_trial(p, n, 0, 0.0, plan, seed, driver="batched")
            failed += ref != fast
            out.append(f"{ref!r}\n")
        return len(seeds), "".join(out), failed


# Why each workload exists is recorded in BENCHMARK.json and README.md.
# The simulate floors are the lowest mean / analytic rate seen over seeds 1-15
# at full size, less 0.01: the ratio moved by under 0.002 between those seeds.
WORKLOADS = {
    w.name: w
    for w in (
        Simulate(
            "simulate-n1e5",
            HEADLINE,
            100_000,
            ("--n-t", "0"),
            {"full": 200, "tiny": 2},
            {"inter": 0.965, "intra": 0.905, "nofb": 0.925},
        ),
        Simulate(
            "simulate-n1e3",
            (0.75, 0.125, 0.5),
            1_000,
            ("--delta-t", "0.5"),
            {"full": 2_000, "tiny": 20},
            {"inter": 0.835, "intra": 0.61, "nofb": 0.685},
        ),
        Sweep(
            "sweep-eta",
            ((0.75, 0.0), (0.75, 0.125)),
            {"full": 0.001, "tiny": 0.05},
        ),
        ReferenceOracle(
            "reference-oracle",
            {"full": 10_000, "tiny": 1_000},
            3,
        ),
    )
}
