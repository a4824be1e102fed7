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
from typing import Optional

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


def _fmt(x: float) -> str:
    return f"{x:.12g}"


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
    return {
        "outer_sum": rates.max_sum_rate(rates.outer_region(p)),
        "c1_sum": rates.max_sum_rate(rates.region_c1(p)),
        "c2_sum": rates.max_sum_rate(rates.region_c2(p)),
        "c3_sum": rates.max_sum_rate(rates.region_c3(p)),
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


def sweep_rows(delta_a: float, delta_b: float, grid: list[float]) -> list[str]:
    """CSV lines (header included) for the sum-rate bounds over an eta grid,
    computed ``_BLOCK_ROWS`` grid points at a time."""
    lines = [CSV_HEADER]
    for start in range(0, len(grid), _BLOCK_ROWS):
        etas = grid[start:start + _BLOCK_ROWS]
        sums = _sums(ModeParams(delta_a=delta_a, delta_b=delta_b, eta=np.array(etas, dtype=float)))
        columns = [map(_fmt, etas)] + [
            [""] * len(etas) if sums[c] is None else map(_fmt, sums[c].tolist())
            for c in _SUM_COLUMNS
        ]
        lines += map(",".join, zip(*columns))
    return lines


def _write_text(path: Optional[str], text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _cmd_region(args) -> str:
    report = _region_report(args.delta_a, args.delta_b, args.eta)
    if args.format == "json":
        return json.dumps(report, indent=2) + "\n"
    return _region_text(report)


def _cmd_sweep(args) -> str:
    lines = sweep_rows(args.delta_a, args.delta_b, _eta_grid(args.eta_grid))
    return "\n".join(lines) + "\n"


def _cmd_simulate(args) -> str:
    p = ModeParams(delta_a=args.delta_a, delta_b=args.delta_b, eta=args.eta)
    n_t = args.n_t
    if n_t is None:
        n_t = montecarlo.default_transient_length(args.n, args.eta)
    scheme = Scheme(args.scheme)
    agg = montecarlo.simulate(
        p, args.n, n_t, args.delta_t, scheme, args.guard_coeff, args.trials, args.seed
    )
    sums = _sums(p)
    report = {
        "delta_a": args.delta_a,
        "delta_b": args.delta_b,
        "delta_t": args.delta_t,
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
    return json.dumps(report, indent=2) + "\n"


def _cmd_figure(args) -> str:
    if args.name == "fig3":
        # include the exact threshold point where inner meets outer
        grid = sorted(set(_eta_grid("0:1:0.01")) | {rates.achievability_threshold(0.75, 0.0)})
        lines = sweep_rows(0.75, 0.0, grid)
    elif args.name == "fig4":
        lines = sweep_rows(0.75, 0.125, _eta_grid("0:1:0.01"))
    else:
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
    return "\n".join(lines) + "\n"


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", default=None, help="output path (default: stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bpecsim",
        description="Rate bounds and feedback-coding simulation for two-user "
        "broadcast erasure channels with scheduled statistics changes.",
    )
    parser.add_argument(
        "--config",
        default=None,
        help="JSON file with default values for the subcommand flags",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("region", help="outer-bound regions and achievable sums")
    sp.add_argument("delta_a", type=float)
    sp.add_argument("delta_b", type=float)
    sp.add_argument("eta", type=float)
    sp.add_argument("--format", choices=("text", "json"), default="text")
    _add_common(sp)
    sp.set_defaults(func=_cmd_region)

    sp = sub.add_parser("sweep", help="sum-rate bounds over an eta grid (CSV)")
    sp.add_argument("--delta-a", dest="delta_a", type=float, required=True)
    sp.add_argument("--delta-b", dest="delta_b", type=float, required=True)
    sp.add_argument(
        "--eta-grid", dest="eta_grid", default="0:1:0.01", help="grid as start:stop:step"
    )
    _add_common(sp)
    sp.set_defaults(func=_cmd_sweep)

    sp = sub.add_parser("simulate", help="Monte Carlo run (JSON report)")
    sp.add_argument("--delta-a", dest="delta_a", type=float, default=0.75)
    sp.add_argument("--delta-b", dest="delta_b", type=float, default=0.0)
    sp.add_argument("--delta-t", dest="delta_t", type=float, default=None)
    sp.add_argument("--eta", type=float, default=32.0 / 35.0)
    sp.add_argument("--n", type=int, default=100_000)
    sp.add_argument(
        "--n-t",
        dest="n_t",
        type=int,
        default=None,
        help="transient length (default: ceil(n^(2/3)), clamped)",
    )
    sp.add_argument("--scheme", choices=sorted(s.value for s in Scheme), default="inter")
    sp.add_argument("--trials", type=int, default=200)
    sp.add_argument("--seed", type=int, default=12345)
    sp.add_argument("--guard-coeff", dest="guard_coeff", type=float, default=3.0)
    _add_common(sp)
    sp.set_defaults(func=_cmd_simulate)

    sp = sub.add_parser("figure", help="canned figure datasets (CSV)")
    sp.add_argument("name", choices=("fig3", "fig4", "fig5"))
    _add_common(sp)
    sp.set_defaults(func=_cmd_figure)

    return parser


def _validate_simulate(args, parser) -> None:
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
    if not 0.0 <= getattr(args, "guard_coeff", 0.0) < math.inf:
        parser.error("guard-coeff must be finite and non-negative")


def _config_defaults(command: argparse.ArgumentParser, config) -> dict:
    """Flag defaults for one subcommand from a JSON config mapping.

    Each value is coerced by its flag's argparse ``type`` and checked against
    its ``choices``.  A key that is not a flag of ``command``, or a value that
    cannot be coerced, raises ValueError.
    """
    if not isinstance(config, dict):
        raise ValueError("config must hold a JSON object")
    flags = {a.dest: a for a in command._actions if a.option_strings and a.dest != "help"}
    defaults = {}
    for key, value in config.items():
        action = flags.get(key.replace("-", "_"))
        if action is None:
            raise ValueError(f"config key {key!r} is not a flag of {command.prog}")
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
        defaults[action.dest] = value
    return defaults


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    tokens = list(sys.argv[1:] if argv is None else argv)
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    # The first parse only finds the command and the config file, so it does
    # not yet demand the required flags a config file may supply.
    required = [
        a for c in sub.choices.values() for a in c._actions if a.required and a.option_strings
    ]
    for action in required:
        action.required = False
    args = parser.parse_args(tokens)
    supplied: dict = {}
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                config = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            parser.error(f"cannot read config {args.config}: {exc}")
        command = sub.choices[args.command]
        try:
            supplied = _config_defaults(command, config)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        command.set_defaults(**supplied)
    for action in required:
        action.required = action.dest not in supplied
    # flags given on the command line override the config defaults
    args = parser.parse_args(tokens)
    if args.command == "simulate" and args.delta_t is None:
        args.delta_t = args.delta_b
    if args.command in ("region", "sweep", "simulate"):
        _validate_simulate(args, sub.choices[args.command])
    try:
        _write_text(args.out, args.func(args))
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
