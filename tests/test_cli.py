import argparse
import hashlib
import json
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bpecsim import rates
from bpecsim.cli import _SUM_COLUMNS, CSV_HEADER, _eta_grid, _fmt, _sums, main, sweep_csv
from bpecsim.rates import ModeParams, max_sum_rates


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_region_text_report(capsys):
    code, out, _ = run_cli(capsys, "region", "0.75", "0", str(32 / 35))
    assert code == 0
    assert "max_sum_rate=0.4" in out
    assert "outer_bound_achievable=true" in out
    assert "inter_modal_sum=0.4" in out
    assert "c1:" in out and "c2:" in out and "c3:" in out


def test_region_missing_arguments_exit(capsys):
    with pytest.raises(SystemExit):
        main(["region", "0.75"])


def test_region_json_fields(capsys):
    code, out, _ = run_cli(capsys, "region", "0.75", "0", str(32 / 35), "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert abs(report["max_sum_rate"] - 0.4) < 1e-9
    assert abs(report["inter_modal_sum"] - 0.4) < 1e-9
    assert report["outer_bound_achievable"] is True
    assert report["binding_region"] == "c1"
    assert len(report["c1_halfspaces"]) == 2
    assert all(len(v) == 2 for v in report["vertices"])
    # stable key order
    code2, out2, _ = run_cli(capsys, "region", "0.75", "0", str(32 / 35), "--format", "json")
    assert out == out2


@pytest.mark.parametrize(
    "args", [["0.75", "0", str(32 / 35)], ["0.2", "0.5", "0.5"], ["0.5", "1", "0.5"]]
)
def test_region_text_file_matches_stdout(tmp_path, capsys, args):
    code, out, _ = run_cli(capsys, "region", *args)
    assert code == 0
    path = tmp_path / "region.txt"
    code, printed, _ = run_cli(capsys, "region", *args, "--format", "text", "--out", str(path))
    assert code == 0 and printed == ""
    assert path.read_bytes() == out.encode("utf-8")


def test_region_rejects_bad_probability(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["region", "1.5", "0", "0.5"])
    assert exc.value.code != 0


def test_sweep_csv_header_and_rows(tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    code, _, _ = run_cli(
        capsys, "sweep", "--delta-a", "0.75", "--delta-b", "0",
        "--eta-grid", "0:1:0.01", "--out", str(out_path),
    )
    assert code == 0
    text = out_path.read_bytes()
    lines = text.decode().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 102  # header + 101 grid points
    # byte-stable across runs
    out2 = tmp_path / "sweep2.csv"
    run_cli(capsys, "sweep", "--delta-a", "0.75", "--delta-b", "0",
            "--eta-grid", "0:1:0.01", "--out", str(out2))
    assert out2.read_bytes() == text


def test_sweep_writes_the_text_of_sweep_csv_to_a_file_and_to_stdout(tmp_path, capsys):
    # 1,113 grid points: three blocks, each written on its own
    argv = ["sweep", "--delta-a", "0.75", "--delta-b", "0.125", "--eta-grid", "0:1:0.0009"]
    expected = sweep_csv(0.75, 0.125, _eta_grid("0:1:0.0009"))
    assert expected.count("\n") == 1 + 1113
    out_path = tmp_path / "sweep.csv"
    assert run_cli(capsys, *argv, "--out", str(out_path)) == (0, "", "")
    assert out_path.read_bytes() == expected.encode()
    assert run_cli(capsys, *argv) == (0, expected, "")


def test_a_sweep_that_fails_in_a_later_block_writes_no_file(tmp_path, capsys, monkeypatch):
    calls = []

    def fail_third_block(*regions):
        calls.append(len(regions))
        if len(calls) == 3:
            raise ValueError("region is empty")
        return max_sum_rates(*regions)

    monkeypatch.setattr(rates, "max_sum_rates", fail_third_block)
    out_path = tmp_path / "sweep.csv"
    code, out, err = run_cli(
        capsys, "sweep", "--delta-a", "0.75", "--delta-b", "0.125",
        "--eta-grid", "0:1:0.0009", "--out", str(out_path),
    )
    assert (code, out, err) == (1, "", "error: region is empty\n")
    assert calls == [4, 4, 4]
    assert not out_path.exists()


def test_sweep_blank_intermodal_when_reversed(tmp_path, capsys):
    out_path = tmp_path / "rev.csv"
    code, _, _ = run_cli(
        capsys, "sweep", "--delta-a", "0.1", "--delta-b", "0.6",
        "--eta-grid", "0:1:0.5", "--out", str(out_path),
    )
    assert code == 0
    rows = out_path.read_text().splitlines()[1:]
    for row in rows:
        assert row.split(",")[5] == ""


def test_sweep_equal_deltas_has_constant_outer_sum(tmp_path, capsys):
    out_path = tmp_path / "eq.csv"
    run_cli(capsys, "sweep", "--delta-a", "0.4", "--delta-b", "0.4",
            "--eta-grid", "0:1:0.1", "--out", str(out_path))
    rows = out_path.read_text().splitlines()[1:]
    u = 2 * 1.4 * 0.6 / 2.4
    for row in rows:
        assert abs(float(row.split(",")[1]) - u) < 1e-9


def test_sweep_rejects_malformed_grid(capsys):
    code, _, err = run_cli(
        capsys, "sweep", "--delta-a", "0.5", "--delta-b", "0",
        "--eta-grid", "1:0:-0.1",
    )
    assert code == 1
    assert "grid" in err


@pytest.mark.parametrize("grid", ["0:1:1e-12", "0:1:5e-324", "0:1:9.99999e-7"])
def test_sweep_rejects_grid_with_too_many_points(capsys, grid):
    start = time.perf_counter()
    code, out, err = run_cli(
        capsys, "sweep", "--delta-a", "0.75", "--delta-b", "0", "--eta-grid", grid
    )
    assert time.perf_counter() - start < 1.0
    assert code == 1 and out == ""
    assert err.startswith("error: grid") and err.count("\n") == 1


def test_eta_grid_accepts_a_million_steps():
    grid = _eta_grid("0:1:1e-6")
    assert len(grid) == 1_000_001 and grid[0] == 0.0 and grid[-1] == 1.0


@pytest.mark.parametrize(
    "grid, expected",
    [
        ("0:1:0.3", [0.0, 0.3, 0.6, 0.8999999999999999, 1.0]),
        ("0:1:0.7", [0.0, 0.7, 1.0]),
        ("0:1:5", [0.0, 1.0]),
        ("0:1:1e9", [0.0, 1.0]),
        ("0.25:0.75:0.125", [0.25, 0.375, 0.5, 0.625, 0.75]),
        ("0.4:0.4:0.1", [0.4]),
    ],
)
def test_eta_grid_keeps_every_regular_point_then_stop(grid, expected):
    assert _eta_grid(grid) == expected


@pytest.mark.parametrize("grid", ["0:1:inf", "0:1:nan", "0:nan:0.1"])
def test_eta_grid_rejects_non_finite_values(grid):
    with pytest.raises(ValueError, match="grid needs"):
        _eta_grid(grid)


def test_eta_grid_keeps_the_last_regular_point_of_an_offset_grid():
    grid = _eta_grid("0.0007:1:0.001")
    assert len(grid) == 1001
    assert grid[0] == 0.0007 and grid[-1] == 1.0
    assert f"{grid[-2]:.12g}" == "0.9997"
    assert all(b - a > 0.0009 for a, b in zip(grid, grid[1:-1]))


def test_eta_grid_limit_counts_the_appended_stop(capsys):
    # 1,000,000 regular points below 1, and then 1 itself
    code, out, err = run_cli(
        capsys, "sweep", "--delta-a", "0.75", "--delta-b", "0", "--eta-grid", "0:1:9.9999996e-7"
    )
    assert code == 1 and out == ""
    assert err.startswith("error: grid") and err.count("\n") == 1


def test_output_path_that_cannot_be_opened_exits_1(capsys):
    for argv in (["region", "0.5", "0", "0.5"], ["figure", "fig5"]):
        code, out, err = run_cli(capsys, *argv, "--out", "")
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


@settings(derandomize=True, max_examples=500, deadline=None)
@given(st.floats())
@example(0.0)
@example(-0.0)
@example(5e-324)
@example(-2.225073858507201e-308)  # the largest subnormal, negated
@example(float(np.nextafter(1e-5, 0.0)))  # g switches to exponent form below 1e-5
@example(1e-5)
@example(9.999999999996e-6)  # rounds up to 1e-05 at 12 digits
@example(999999999999.4)
@example(999999999999.5)  # rounds up to 1e+12 at 12 digits
@example(1e12)
@example(float(np.nextafter(1e12, 2e12)))
@example(float("inf"))
@example(float("-inf"))
@example(float("nan"))
def test_percent_spelling_equals_format_spelling(x):
    assert "%.12g" % x == format(x, ".12g") == _fmt(x)


def _scalar_row(delta_a, delta_b, eta):
    sums = _sums(ModeParams(delta_a, delta_b, eta))
    values = [eta] + [sums[c] for c in _SUM_COLUMNS]
    return ",".join("" if v is None else format(v, ".12g") for v in values)


@pytest.mark.parametrize("grid", ["0:1:0.0009", "0.3:0.3:0.1"])
@pytest.mark.parametrize("delta_a, delta_b", [(0.75, 0.125), (0.2, 0.6)])
def test_sweep_csv_rows_equal_the_scalar_oracle(grid, delta_a, delta_b):
    etas = _eta_grid(grid)
    text = sweep_csv(delta_a, delta_b, etas)
    lines = text.split("\n")
    # the 1,113-point grid spans three blocks; the text ends with a newline
    assert lines[0] == CSV_HEADER and lines[-1] == "" and len(lines) == len(etas) + 2
    for k in sorted({*range(0, len(etas), 50), len(etas) - 1}):
        assert lines[k + 1] == _scalar_row(delta_a, delta_b, etas[k])
    # the reversed pair has no inter-modal sum
    assert all((row.split(",")[5] == "") == (delta_a < delta_b) for row in lines[1:-1])


def test_figure_fig3_contains_threshold_row(tmp_path, capsys):
    out_path = tmp_path / "fig3.csv"
    code, _, _ = run_cli(capsys, "figure", "fig3", "--out", str(out_path))
    assert code == 0
    rows = [r.split(",") for r in out_path.read_text().splitlines()[1:]]
    target = [r for r in rows if abs(float(r[0]) - 32 / 35) < 1e-9]
    assert len(target) == 1
    outer, inter = float(target[0][1]), float(target[0][5])
    assert abs(outer - 0.4) < 1e-9 and abs(inter - 0.4) < 1e-9


def test_figure_fig4_row_count(tmp_path, capsys):
    out_path = tmp_path / "fig4.csv"
    run_cli(capsys, "figure", "fig4", "--out", str(out_path))
    lines = out_path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 102


def test_figure_fig5_summary(tmp_path, capsys):
    out_path = tmp_path / "fig5.csv"
    run_cli(capsys, "figure", "fig5", "--out", str(out_path))
    lines = out_path.read_text().splitlines()
    assert lines[0] == "label,r1,r2,value"
    values = {}
    for line in lines[1:]:
        label, _, _, value = line.split(",")
        if value:
            values[label] = float(value)
    assert abs(values["inter_modal_sum"] - 0.890625) < 1e-9
    assert abs(values["outer_max_sum"] - 87 / 96) < 1e-9
    assert values["inter_modal_sum"] > values["intra_modal_sum"]
    assert values["intra_modal_reported"] == 0.875


def test_figure_unknown_name(capsys):
    with pytest.raises(SystemExit):
        main(["figure", "fig9"])


def test_simulate_json_report(tmp_path, capsys):
    out_path = tmp_path / "sim.json"
    code, _, _ = run_cli(
        capsys, "simulate", "--n", "2000", "--n-t", "0", "--trials", "5",
        "--seed", "7", "--out", str(out_path),
    )
    assert code == 0
    report = json.loads(out_path.read_text())
    assert report["n"] == 2000
    assert report["trials"] == 5
    assert abs(report["analytic_sum_rate"] - 0.4) < 1e-9
    assert 0.0 <= report["mean_sum_rate"] <= 1.0
    # single fixed-seed trial is stable
    code, out1, _ = run_cli(capsys, "simulate", "--n", "1000", "--n-t", "0",
                            "--trials", "1", "--seed", "3")
    code, out2, _ = run_cli(capsys, "simulate", "--n", "1000", "--n-t", "0",
                            "--trials", "1", "--seed", "3")
    assert out1 == out2


def test_simulate_inter_near_full_erasure_reports(capsys):
    # the raw-fraction self-check once failed here: 1 - avg_erasure cancels
    code, out, err = run_cli(
        capsys, "simulate", "--delta-a", "0.9999", "--delta-b", "0.9999", "--eta", "0.2",
        "--n", "1000", "--trials", "2",
    )
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["scheme"] == "inter" and report["trials"] == 2


def test_simulate_nofeedback_analytic_field(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--scheme", "nofb", "--n", "1000", "--n-t", "0",
        "--trials", "2", "--seed", "1",
    )
    report = json.loads(out)
    assert abs(report["analytic_sum_rate"] - 11 / 35) < 1e-9


def test_simulate_validates_config(capsys):
    with pytest.raises(SystemExit):
        main(["simulate", "--delta-a", "1.7"])
    with pytest.raises(SystemExit):
        main(["simulate", "--trials", "0"])
    for value in ("inf", "-inf", "nan"):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--n", "100", "--trials", "1", f"--guard-coeff={value}"])
        assert exc.value.code == 2
        assert "guard-coeff must be finite and non-negative" in capsys.readouterr().err


def test_simulate_guard_that_overflows_is_one_error_line(capsys):
    code, out, err = run_cli(
        capsys, "simulate", "--n", "100", "--trials", "2", "--guard-coeff", "1e308"
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error: guard coefficient") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("n_t", [[], ["--n-t", "0"]], ids=["default-n-t", "n-t-0"])
def test_simulate_blocklength_beyond_float_is_one_error_line(capsys, n_t):
    # the default transient length and the planner's guard both take n^(2/3)
    code, out, err = run_cli(capsys, "simulate", "--n", "1" + "0" * 400, "--trials", "2", *n_t)
    assert code == 1
    assert out == ""
    assert err.startswith("error: blocklength n ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("scheme", ["inter", "intra", "nofb"])
def test_simulate_blocklength_past_a_c_ssize_t_is_one_error_line(capsys, scheme):
    # a float holds this n, so the n^(2/3) checks pass it to the planner
    code, out, err = run_cli(
        capsys, "simulate", "--n", "1" + "0" * 300, "--n-t", "0", "--trials", "1",
        "--scheme", scheme,
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--trials", "0"],
        ["simulate", "--n", "100", "--trials", "1", "--guard-coeff=inf"],
        ["region", "1.5", "0", "0.5"],
        ["sweep", "--delta-a", "0.75", "--delta-b", "-0.1"],
        ["simulate", "--seed", "-1"],
    ],
)
def test_validation_errors_print_the_subcommand_usage(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith(f"usage: bpecsim {argv[0]} ")


def test_simulate_allocation_failure_is_one_error_line(capsys):
    # 2e15 channel words take 14.2 PiB, more than a 64-bit address space can
    # map, so the allocation fails at once without touching memory
    start = time.perf_counter()
    code, out, err = run_cli(
        capsys, "simulate", "--n", "1000000000000000", "--n-t", "0", "--trials", "1"
    )
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_config_file_defaults_and_override(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"n": 1500, "trials": 3, "seed": 11, "n_t": 0}))
    code, out, _ = run_cli(capsys, "--config", str(cfg), "simulate")
    report = json.loads(out)
    assert report["n"] == 1500 and report["trials"] == 3
    code, out, _ = run_cli(
        capsys, "--config", str(cfg), "simulate", "--trials", "4"
    )
    report = json.loads(out)
    assert report["n"] == 1500 and report["trials"] == 4


def test_config_values_are_coerced_by_flag_type(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"n": "1500", "trials": "3", "seed": 11, "n-t": "0", "eta": "0.5"}))
    code, out, _ = run_cli(capsys, "--config", str(cfg), "simulate")
    assert code == 0
    report = json.loads(out)
    assert (report["n"], report["trials"], report["n_t"], report["eta"]) == (1500, 3, 0, 0.5)
    # any spelling argparse accepts on the command line overrides the config
    for flag in (["--trials=2"], ["--tri", "2"]):
        code, out, _ = run_cli(capsys, "--config", str(cfg), "simulate", *flag)
        assert code == 0 and json.loads(out)["trials"] == 2


@pytest.mark.parametrize(
    "command, config",
    [
        (["simulate"], {"bogus_key": 1}),
        (["simulate"], {"config": "other.json"}),
        (["region", "0.75", "0", "0.5"], {"delta_a": 0.1}),  # positional, not a flag
        (["sweep", "--delta-a", "0.75", "--delta-b", "0"], {"trials": 5}),
        (["simulate"], {"trials": "five"}),
        (["simulate"], {"trials": 2.5}),
        (["simulate"], {"trials": True}),
        (["simulate"], {"n": None}),
        (["simulate"], {"seed": [1, 2]}),
        (["simulate"], {"scheme": "turbo"}),
        (["simulate"], ["trials", 5]),
    ],
)
def test_config_rejects_unknown_keys_and_bad_values(tmp_path, capsys, command, config):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(config))
    code, out, err = run_cli(capsys, "--config", str(cfg), *command)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_config_supplies_required_flags(tmp_path, capsys):
    flags = ["sweep", "--eta-grid", "0:1:0.05", "--out"]
    assert main([*flags, str(tmp_path / "flags.csv"), "--delta-a", "0.75", "--delta-b", "0"]) == 0
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"delta_a": 0.75, "delta_b": 0}))
    assert main(["--config", str(cfg), *flags, str(tmp_path / "config.csv")]) == 0
    expected = (tmp_path / "flags.csv").read_bytes()
    assert (tmp_path / "config.csv").read_bytes() == expected
    # a config may supply some required flags and the command line the rest
    cfg.write_text(json.dumps({"delta_a": 0.75}))
    out = str(tmp_path / "mixed.csv")
    assert main(["--config", str(cfg), *flags, out, "--delta-b", "0"]) == 0
    assert (tmp_path / "mixed.csv").read_bytes() == expected
    capsys.readouterr()


def test_calls_do_not_affect_each_other(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"delta_a": 0.75, "delta_b": 0}))
    assert main(["--config", str(cfg), "sweep", "--eta-grid", "0:1:0.5"]) == 0
    with pytest.raises(SystemExit) as exc:
        main(["sweep"])
    assert exc.value.code == 2
    assert "required: --delta-a, --delta-b" in capsys.readouterr().err
    # the parsers are built once, at import, not on each call
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert main(["sweep", "--delta-a", "0.75", "--delta-b", "0", "--eta-grid", "0:1:0.5"]) == 0
    assert built == []
    capsys.readouterr()


@pytest.mark.parametrize(
    "config, missing",
    [
        (None, "--delta-a, --delta-b"),
        ({"delta_a": 0.75}, "--delta-b"),
        ({}, "--delta-a, --delta-b"),
    ],
)
def test_required_flags_missing_from_command_line_and_config(tmp_path, capsys, config, missing):
    argv = ["sweep"]
    if config is not None:
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps(config))
        argv = ["--config", str(cfg), *argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"the following arguments are required: {missing}" in capsys.readouterr().err


# sha256 of `bpecsim <command> -h` at 80 columns
HELP_SHA256 = {
    "region": "4a4f91b0959568e5c580935374dc8d9c6f4ee8987c57d13f624748ff975259c1",
    "sweep": "895d12e46df0b6587f96765b14bf228957e489005c13d290632e9df898d601f7",
    "simulate": "a0c4432cecb9f6bf58bbf3ae940eee2e48edad444ac4875d0f1381564b7d8230",
    "figure": "138fd4afd5f60fb7e9f269bac8925a84721df85f37d42bd47557477527a59d6c",
}
COMMAND_HELP = {
    "region": "outer-bound regions and achievable sums",
    "sweep": "sum-rate bounds over an eta grid (CSV)",
    "simulate": "Monte Carlo run (JSON report)",
    "figure": "canned figure datasets (CSV)",
}
TOP_USAGE = "usage: bpecsim [-h] [--config CONFIG] {region,sweep,simulate,figure} ..."


@pytest.mark.parametrize("command", sorted(HELP_SHA256))
def test_command_help_is_pinned(monkeypatch, capsys, command):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main([command, "-h"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == HELP_SHA256[command]


def test_top_level_help_lists_every_command_with_its_help(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(["-h"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith(TOP_USAGE + "\n")
    lines = [line.split() for line in out.splitlines()]
    for name, text in COMMAND_HELP.items():
        assert [name, *text.split()] in lines


def test_missing_and_unknown_command_errors(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines() == [
        TOP_USAGE, "bpecsim: error: the following arguments are required: command"
    ]
    with pytest.raises(SystemExit) as exc:
        main(["bogus"])
    assert exc.value.code == 2
    usage, error = capsys.readouterr().err.splitlines()
    assert usage == TOP_USAGE
    # older argparse releases print the choices with repr, newer ones with str
    choices = ", ".join(map(repr, COMMAND_HELP)), ", ".join(COMMAND_HELP)
    assert error in {
        f"bpecsim: error: argument command: invalid choice: 'bogus' (choose from {c})"
        for c in choices
    }
