"""Command-line front end: region reports, sweeps, simulations, figure data.

Subcommands
-----------
region    print the outer-bound regions and achievable sums for one parameter set
sweep     write a CSV of sum-rate bounds over an eta grid
simulate  run the Monte Carlo harness and emit a JSON report
figure    emit the canned CSV datasets fig3 / fig4 / fig5

Flags override values from an optional JSON config file (--config).  All CSV
and JSON output is byte-stable for identical inputs.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Callable, Optional

import numpy as np

from . import montecarlo, rates
from .protocol import Scheme
from .rates import ModeParams, UnsupportedParametersError

# the sum rates of every report, keyed and ordered as the sweep/figure CSV columns
_SUM_COLUMNS = ("outer_sum", "c1_sum", "c2_sum", "c3_sum",
                "inter_modal_sum", "intra_modal_sum", "no_feedback_sum")
CSV_HEADER = ",".join(("eta",) + _SUM_COLUMNS)

# the column that holds each scheme's analytic sum rate
_SCHEME_SUM = {
    Scheme.INTER_MODAL: "inter_modal_sum",
    Scheme.INTRA_MODAL: "intra_modal_sum",
    Scheme.NO_FEEDBACK: "no_feedback_sum",
}

# a step of 1e-6 over [0, 1]; a finer grid would only exhaust memory
_MAX_GRID_POINTS = 1_000_001
# a regular grid point closer than this many steps to stop is stop itself
_GRID_DUST = 1e-9
# eta grid points per sweep block; bounds the size of the rate kernel's arrays
_BLOCK_ROWS = 512
# the spelling of every float in text and CSV output
_FLOAT = "%.12g"


def _fmt(x: float) -> str:
    return _FLOAT % x


def _eta_grid(grid: str) -> list[float]:
    """Every ``start + k * step`` below ``stop``, then ``stop`` itself."""
    try:
        start_s, stop_s, step_s = grid.split(":")
        start, stop, step = float(start_s), float(stop_s), float(step_s)
    except ValueError as exc:
        raise ValueError(f"grid must be start:stop:step, got {grid!r}") from exc
    if not (0.0 <= start <= stop <= 1.0 and 0.0 < step < math.inf):
        raise ValueError(f"grid needs 0 <= start <= stop <= 1 and 0 < step < inf, got {grid!r}")
    span = (stop - start) / step
    # checked before rounding: the quotient may be too large for an int
    if span > _MAX_GRID_POINTS - 1 + _GRID_DUST:
        raise ValueError(
            f"grid {grid!r} has more than {_MAX_GRID_POINTS} points; use a coarser step"
        )
    # start itself is a regular point below stop whenever it differs from stop
    count = max(math.ceil(span - _GRID_DUST), int(start < stop))
    return [start + k * step for k in range(count)] + [stop]


def _sums(p: ModeParams) -> dict[str, Optional[float]]:
    """Every report's sum rates at ``p``, keyed by ``_SUM_COLUMNS``; the
    inter-modal sum is None where ``rates`` rules its analysis out."""
    try:
        inter = rates.achievable_intermodal_sum(p)
    except UnsupportedParametersError:
        inter = None
    outer, c1, c2, c3 = rates.max_sum_rates(
        rates.outer_region(p), rates.region_c1(p), rates.region_c2(p), rates.region_c3(p)
    )
    return {
        "outer_sum": outer,
        "c1_sum": c1,
        "c2_sum": c2,
        "c3_sum": c3,
        "inter_modal_sum": inter,
        "intra_modal_sum": rates.achievable_intramodal_sum(p),
        "no_feedback_sum": rates.achievable_nofeedback_sum(p),
    }


def _region_report(delta_a: float, delta_b: float, eta: float) -> dict:
    p = ModeParams(delta_a=delta_a, delta_b=delta_b, eta=eta)
    sums = _sums(p)
    return {
        "delta_a": delta_a,
        "delta_b": delta_b,
        "eta": eta,
        "avg_erasure": rates.avg_erasure(p),
        "kappa": rates.kappa(p),
        "c1_halfspaces": [[h.c1, h.c2, h.bound] for h in rates.region_c1(p).halfspaces],
        "c2_halfspaces": [[h.c1, h.c2, h.bound] for h in rates.region_c2(p).halfspaces],
        "c3_halfspaces": [[h.c1, h.c2, h.bound] for h in rates.region_c3(p).halfspaces],
        "vertices": [[v.r1, v.r2] for v in rates.vertices(rates.outer_region(p))],
        "max_sum_rate": sums["outer_sum"],
        "c1_sum": sums["c1_sum"],
        "c2_sum": sums["c2_sum"],
        "c3_sum": sums["c3_sum"],
        # the first of tied minima
        "binding_region": min(("c1", "c2", "c3"), key=lambda name: sums[f"{name}_sum"]),
        "outer_bound_achievable": rates.outer_bound_achievable(p),
        "inter_modal_sum": sums["inter_modal_sum"],
        "intra_modal_sum": sums["intra_modal_sum"],
        "no_feedback_sum": sums["no_feedback_sum"],
    }


def _region_text(report: dict) -> str:
    lines = [
        f"delta_a={_fmt(report['delta_a'])} delta_b={_fmt(report['delta_b'])} "
        f"eta={_fmt(report['eta'])} avg_erasure={_fmt(report['avg_erasure'])} "
        f"kappa={_fmt(report['kappa'])}"
    ]
    for name in ("c1", "c2", "c3"):
        parts = [
            f"{_fmt(c1)}*R1 + {_fmt(c2)}*R2 <= {_fmt(b)}"
            for c1, c2, b in report[f"{name}_halfspaces"]
        ]
        lines.append(f"{name}: " + " ; ".join(parts) + f"  (max sum {_fmt(report[f'{name}_sum'])})")
    verts = " ".join(f"({_fmt(r1)}, {_fmt(r2)})" for r1, r2 in report["vertices"])
    lines.append(f"vertices: {verts}")
    lines.append(f"max_sum_rate={_fmt(report['max_sum_rate'])}")
    lines.append(f"binding_region={report['binding_region']}")
    lines.append(f"outer_bound_achievable={str(report['outer_bound_achievable']).lower()}")
    inter = report["inter_modal_sum"]
    lines.append(
        f"inter_modal_sum={_fmt(inter) if inter is not None else 'n/a'} "
        f"intra_modal_sum={_fmt(report['intra_modal_sum'])} "
        f"no_feedback_sum={_fmt(report['no_feedback_sum'])}"
    )
    return "\n".join(lines) + "\n"


def _sweep_blocks(delta_a: float, delta_b: float, grid: list[float]) -> list[str]:
    """The CSV of the sum-rate bounds over an eta grid: the header line, then
    the rows of each ``_BLOCK_ROWS`` grid points as one text."""
    blocks = [CSV_HEADER + "\n"]
    for start in range(0, len(grid), _BLOCK_ROWS):
        etas = grid[start:start + _BLOCK_ROWS]
        sums = _sums(ModeParams(delta_a=delta_a, delta_b=delta_b, eta=np.array(etas, dtype=float)))
        # one row template per block; a column of None is an empty field
        row = ",".join([_FLOAT] + ["" if sums[c] is None else _FLOAT for c in _SUM_COLUMNS])
        values = np.column_stack([etas] + [sums[c] for c in _SUM_COLUMNS if sums[c] is not None])
        blocks.append((row + "\n") * len(etas) % tuple(values.ravel().tolist()))
    return blocks


def sweep_csv(delta_a: float, delta_b: float, grid: list[float]) -> str:
    """CSV text (header included) of the sum-rate bounds over an eta grid,
    computed and formatted ``_BLOCK_ROWS`` grid points at a time."""
    return "".join(_sweep_blocks(delta_a, delta_b, grid))


def _write_text(path: Optional[str], parts: list[str]) -> None:
    # writelines encodes part by part, so no copy of the whole text is made
    if path is None or path == "-":
        sys.stdout.writelines(parts)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(parts)


def _cmd_region(args) -> list[str]:
    report = _region_report(args.delta_a, args.delta_b, args.eta)
    if args.format == "json":
        return [json.dumps(report, indent=2) + "\n"]
    return [_region_text(report)]


def _cmd_sweep(args) -> list[str]:
    return _sweep_blocks(args.delta_a, args.delta_b, _eta_grid(args.eta_grid))


def _cmd_simulate(args) -> list[str]:
    p = ModeParams(delta_a=args.delta_a, delta_b=args.delta_b, eta=args.eta)
    n_t = args.n_t
    if n_t is None:
        n_t = montecarlo.default_transient_length(args.n, args.eta)
    # without its own erasure probability the transient takes mode B's
    delta_t = args.delta_b if args.delta_t is None else args.delta_t
    scheme = Scheme(args.scheme)
    agg = montecarlo.simulate(
        p, args.n, n_t, delta_t, scheme, args.guard_coeff, args.trials, args.seed
    )
    sums = _sums(p)
    report = {
        "delta_a": args.delta_a,
        "delta_b": args.delta_b,
        "delta_t": delta_t,
        "eta": args.eta,
        "n": args.n,
        "n_t": n_t,
        "scheme": args.scheme,
        "trials": args.trials,
        "seed": args.seed,
        "guard_coeff": args.guard_coeff,
        "mean_sum_rate": agg.mean_sum_rate,
        "sum_rate_ci95": list(agg.sum_rate_ci95),
        "failure_rate_1": agg.failure_rate_1,
        "failure_rate_2": agg.failure_rate_2,
        "analytic_sum_rate": sums[_SCHEME_SUM[scheme]],
        "outer_max_sum_rate": sums["outer_sum"],
    }
    return [json.dumps(report, indent=2) + "\n"]


def _cmd_figure(args) -> list[str]:
    if args.name == "fig3":
        # include the exact threshold point where inner meets outer
        grid = sorted(set(_eta_grid("0:1:0.01")) | {rates.achievability_threshold(0.75, 0.0)})
        return _sweep_blocks(0.75, 0.0, grid)
    if args.name == "fig4":
        return _sweep_blocks(0.75, 0.125, _eta_grid("0:1:0.01"))
    # fig5: region comparison in the regime where inner and outer bounds split
    p = ModeParams(delta_a=0.75, delta_b=0.0, eta=1.0 / 6.0)
    sums = _sums(p)
    lines = ["label,r1,r2,value"]
    for v in rates.vertices(rates.outer_region(p)):
        lines.append(f"vertex,{_fmt(v.r1)},{_fmt(v.r2)},")
    lines.append(f"outer_max_sum,,,{_fmt(sums['outer_sum'])}")
    lines.append(f"inter_modal_sum,,,{_fmt(sums['inter_modal_sum'])}")
    lines.append(f"intra_modal_sum,,,{_fmt(sums['intra_modal_sum'])}")
    # alternative weighted-average figure for this setup, kept for comparison
    lines.append("intra_modal_reported,,,0.875")
    lines.append(f"no_feedback_sum,,,{_fmt(sums['no_feedback_sum'])}")
    return ["\n".join(lines) + "\n"]


class _Command:
    """A subcommand: its line in ``bpecsim -h``, its parser, the function that
    makes its report (a list of texts, written in order), and its options by
    dest, the keys a config file may set."""

    def __init__(
        self, name: str, help: str, run: Callable[[argparse.Namespace], list[str]], **kwargs
    ):
        self.help = help
        self.parser = argparse.ArgumentParser(prog=f"bpecsim {name}", **kwargs)
        self.run = run
        self.flags: dict[str, argparse.Action] = {}

    def option(self, *names: str, **kwargs) -> None:
        action = self.parser.add_argument(*names, **kwargs)
        self.flags[action.dest] = action


def _build_commands() -> dict[str, _Command]:
    region = _Command("region", "outer-bound regions and achievable sums", _cmd_region)
    region.parser.add_argument("delta_a", type=float)
    region.parser.add_argument("delta_b", type=float)
    region.parser.add_argument("eta", type=float)
    region.option("--format", choices=("text", "json"), default="text")

    # a config file may supply the required flags, so the usage brackets them
    usage = """%(prog)s [-h] [--delta-a DELTA_A] [--delta-b DELTA_B]
                     [--eta-grid ETA_GRID] [--out OUT]"""
    sweep = _Command("sweep", "sum-rate bounds over an eta grid (CSV)", _cmd_sweep, usage=usage)
    sweep.option("--delta-a", type=float, required=True)
    sweep.option("--delta-b", type=float, required=True)
    sweep.option("--eta-grid", default="0:1:0.01", help="grid as start:stop:step")

    simulate = _Command("simulate", "Monte Carlo run (JSON report)", _cmd_simulate)
    simulate.option("--delta-a", type=float, default=0.75)
    simulate.option("--delta-b", type=float, default=0.0)
    simulate.option("--delta-t", type=float)
    simulate.option("--eta", type=float, default=32.0 / 35.0)
    simulate.option("--n", type=int, default=100_000)
    simulate.option("--n-t", type=int, help="transient length (default: ceil(n^(2/3)), clamped)")
    simulate.option("--scheme", choices=sorted(s.value for s in Scheme), default="inter")
    simulate.option("--trials", type=int, default=200)
    simulate.option("--seed", type=int, default=12345)
    simulate.option("--guard-coeff", type=float, default=3.0)

    figure = _Command("figure", "canned figure datasets (CSV)", _cmd_figure)
    figure.parser.add_argument("name", choices=("fig3", "fig4", "fig5"))

    commands = {"region": region, "sweep": sweep, "simulate": simulate, "figure": figure}
    for command in commands.values():
        command.option("--out", help="output path (default: stdout)")
    return commands


_COMMANDS = _build_commands()

_PARSER = argparse.ArgumentParser(
    prog="bpecsim",
    description="Rate bounds and feedback-coding simulation for two-user broadcast erasure\n"
    "channels with scheduled statistics changes.",
    epilog="commands:\n" + "".join(f"  {name:<22}{c.help}\n" for name, c in _COMMANDS.items()),
    formatter_class=argparse.RawDescriptionHelpFormatter,
)
_PARSER.add_argument("--config", help="JSON file with default values for the subcommand flags")
# the command's name and every argument after it, for the command's own parser
_PARSER.add_argument(
    "command", nargs=argparse.PARSER, choices=_COMMANDS, help="the command, then its arguments"
)


def _validate(args, parser) -> None:
    for name in ("delta_a", "delta_b", "delta_t", "eta"):
        value = getattr(args, name, None)
        if value is not None and not 0.0 <= value <= 1.0:
            parser.error(f"{name.replace('_', '-')} must lie in [0, 1], got {value}")
    if getattr(args, "n", 1) < 1:
        parser.error("n must be at least 1")
    if getattr(args, "n_t", None) is not None and args.n_t < 0:
        parser.error("n-t must be non-negative")
    if getattr(args, "trials", 1) < 1:
        parser.error("trials must be at least 1")
    if getattr(args, "seed", 0) < 0:
        parser.error("seed must be non-negative")
    if not 0.0 <= getattr(args, "guard_coeff", 0.0) < math.inf:
        parser.error("guard-coeff must be finite and non-negative")


def _config_args(command: _Command, config) -> list[str]:
    """``--flag=value`` arguments for one subcommand from a JSON config mapping.

    Each value is coerced by its flag's argparse ``type`` and checked against
    its ``choices``.  A key that is not a flag of ``command``, or a value that
    cannot be coerced, raises ValueError.
    """
    if not isinstance(config, dict):
        raise ValueError("config must hold a JSON object")
    args = []
    for key, value in config.items():
        action = command.flags.get(key.replace("-", "_"))
        if action is None:
            raise ValueError(f"config key {key!r} is not a flag of {command.parser.prog}")
        if isinstance(value, bool) or not isinstance(value, (str, int, float)):
            raise ValueError(f"config key {key!r} must be a string or a number, got {value!r}")
        convert = action.type or str
        try:
            value = convert(str(value))
        except ValueError:
            raise ValueError(
                f"config key {key!r}: {value!r} is not a valid {convert.__name__}"
            ) from None
        if action.choices is not None and value not in action.choices:
            raise ValueError(f"config key {key!r}: {value!r} is not one of {sorted(action.choices)}")
        args.append(f"{action.option_strings[0]}={value}")
    return args


def main(argv: Optional[list[str]] = None) -> int:
    top = _PARSER.parse_args(sys.argv[1:] if argv is None else argv)
    name, *rest = top.command
    command = _COMMANDS[name]
    config_args = []
    if top.config:
        try:
            with open(top.config, encoding="utf-8") as fh:
                config = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            _PARSER.error(f"cannot read config {top.config}: {exc}")
        try:
            config_args = _config_args(command, config)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    # the command line comes after the config, so its flags override the config's
    args = command.parser.parse_args(config_args + rest)
    _validate(args, command.parser)
    try:
        _write_text(args.out, command.run(args))
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
