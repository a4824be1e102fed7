import json
import time

import pytest

from bpecsim.cli import CSV_HEADER, _eta_grid, main


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


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--trials", "0"],
        ["simulate", "--n", "100", "--trials", "1", "--guard-coeff=inf"],
        ["region", "1.5", "0", "0.5"],
        ["sweep", "--delta-a", "0.75", "--delta-b", "-0.1"],
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
