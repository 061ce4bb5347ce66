"""Command-line front end: exit codes, artifacts, reproducibility."""

import contextlib
import hashlib
import io
import json
import tempfile
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from purepole.cli import (
    _READS,
    EXIT_BELOW_THRESHOLD,
    EXIT_CONFIG,
    EXIT_OK,
    PRESETS,
    ConfigError,
    RunConfig,
    build_run_config,
    run,
)


def _file_hashes(directory: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.iterdir())
        if p.is_file()
    }


class TestPresets:
    def test_all_fourteen_named_cases(self):
        assert len(PRESETS) == 14
        assert PRESETS["o-band-i"] == (710.0, 1310.0, "Z")
        assert PRESETS["c-band-xiv"] == (799.2, 1550.0, "Y")


class TestGvmMapCommand:
    def test_writes_maps_and_legend(self, tmp_path, capsys):
        out = tmp_path / "map"
        code = run([
            "gvm-map",
            "--pump-range-nm", "705:715:5",
            "--signal-range-nm", "1300:1320:10",
            "--signal-axis", "Z",
            "--out-dir", str(out),
        ])
        assert code == EXIT_OK
        assert (out / "gvm_theta_map.csv").exists()
        assert (out / "gvm_lc_map.csv").exists()
        assert (out / "mask_legend.txt").exists()
        assert (out / "run_config.json").exists()
        text = (out / "gvm_theta_map.csv").read_text()
        assert text.startswith("# run_config_digest: ")
        assert "sellmeier: ktp-kato-takaoka-2002" in text

    def test_case_i_cell_value(self, tmp_path):
        out = tmp_path / "map"
        assert run([
            "gvm-map",
            "--pump-range-nm", "710:710:1",
            "--signal-range-nm", "1310:1310:1",
            "--signal-axis", "Z",
            "--out-dir", str(out),
        ]) == EXIT_OK
        row = (out / "gvm_theta_map.csv").read_text().strip().splitlines()[-1].split(",")
        assert float(row[3]) == pytest.approx(26.0, abs=2.0)

    def test_empty_range_is_config_error(self, tmp_path, capsys):
        code = run([
            "gvm-map",
            "--pump-range-nm", "720:700:5",
            "--signal-range-nm", "1300:1320:10",
            "--out-dir", str(tmp_path / "x"),
        ])
        assert code == EXIT_CONFIG
        assert "pump_range_nm" in capsys.readouterr().err

    def test_missing_ranges_is_config_error(self, tmp_path, capsys):
        assert run(["gvm-map", "--out-dir", str(tmp_path)]) == EXIT_CONFIG

    def test_sellmeier_file_override(self, tmp_path):
        from purepole import KTP_KATO_2002

        custom = tmp_path / "custom.txt"
        KTP_KATO_2002.to_file(custom)
        out = tmp_path / "map"
        assert run([
            "gvm-map",
            "--pump-range-nm", "710:710:1",
            "--signal-range-nm", "1310:1310:1",
            "--signal-axis", "Z",
            "--sellmeier", str(custom),
            "--out-dir", str(out),
        ]) == EXIT_OK
        assert str(custom) in (out / "gvm_theta_map.csv").read_text()

    def test_sellmeier_unknown_name_exit_2(self, tmp_path, capsys):
        code = run([
            "gvm-map",
            "--pump-range-nm", "710:710:1",
            "--signal-range-nm", "1310:1310:1",
            "--sellmeier", "no-such-set",
            "--out-dir", str(tmp_path),
        ])
        assert code == EXIT_CONFIG
        assert "sellmeier" in capsys.readouterr().err

    def test_reproducible_across_out_dirs(self, tmp_path):
        args = [
            "gvm-map",
            "--pump-range-nm", "705:715:5",
            "--signal-range-nm", "1300:1320:10",
            "--signal-axis", "Z",
        ]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run(args + ["--out-dir", str(out_a)]) == EXIT_OK
        assert run(args + ["--out-dir", str(out_b)]) == EXIT_OK
        for name in ("gvm_theta_map.csv", "gvm_lc_map.csv", "mask_legend.txt"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


class TestDesignCommand:
    def test_pp_scheme_row_and_artifacts(self, tmp_path, capsys):
        out = tmp_path / "pp"
        code = run([
            "design", "--preset", "o-band-i", "--scheme", "pp",
            "--pump-bw-nm", "1.71", "--out-dir", str(out),
        ])
        assert code == EXIT_OK
        row = capsys.readouterr().out
        assert "P_PP" in row and "P_opt" in row
        for name in (
            "design_result.json", "design_summary.txt", "poling.txt",
            "jsa_abs.csv", "jsa.bin", "schmidt.csv", "run_config.json",
        ):
            assert (out / name).exists(), name
        data = json.loads((out / "design_result.json").read_text())
        assert data["purity"] == pytest.approx(0.8301, abs=0.03)
        assert data["pp_purity"] == data["purity"]
        assert data["theta_deg"] == pytest.approx(26.0, abs=2.0)
        assert data["l_c_um"] == pytest.approx(18.86, rel=0.05)
        assert data["structure"]["kind"] == "uniform"
        assert len(data["structure"]["signs"]) == 265

    def test_unknown_preset_exit_2(self, tmp_path, capsys):
        assert run([
            "design", "--preset", "o-band-ix", "--out-dir", str(tmp_path),
        ]) == EXIT_CONFIG

    def test_missing_wavelengths_exit_2(self, tmp_path, capsys):
        code = run(["design", "--out-dir", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert "pump_nm" in capsys.readouterr().err

    def test_below_threshold_exit_3_still_writes(self, tmp_path, capsys):
        out = tmp_path / "cl"
        code = run([
            "design", "--preset", "o-band-i", "--scheme", "cl-scl",
            "--beta-ladder", "1", "--purity-threshold", "0.99999",
            "--out-dir", str(out),
        ])
        assert code == EXIT_BELOW_THRESHOLD
        data = json.loads((out / "design_result.json").read_text())
        assert data["below_threshold"] is True
        assert data["purity"] > 0.99

    def test_persisted_config_reruns_byte_identical(self, tmp_path):
        out = tmp_path / "run"
        args = [
            "design", "--preset", "o-band-i", "--scheme", "pp",
            "--pump-bw-nm", "1.71", "--out-dir", str(out),
        ]
        assert run(args) == EXIT_OK
        first = _file_hashes(out)
        assert run(["design", "--config", str(out / "run_config.json")]) == EXIT_OK
        assert _file_hashes(out) == first

    def test_key_value_config_file(self, tmp_path):
        out_flags = tmp_path / "flags"
        out_file = tmp_path / "file"
        assert run([
            "design", "--preset", "o-band-i", "--scheme", "pp",
            "--pump-bw-nm", "1.71", "--out-dir", str(out_flags),
        ]) == EXIT_OK
        config = tmp_path / "run.cfg"
        config.write_text(
            "command = design\n"
            "preset = o-band-i\n"
            "scheme = pp\n"
            "pump_bandwidth_nm = 1.71\n"
            f"out_dir = {out_file}\n"
        )
        assert run(["design", "--config", str(config)]) == EXIT_OK
        for name in ("design_result.json", "poling.txt", "jsa.bin", "schmidt.csv"):
            assert (out_flags / name).read_bytes() == (out_file / name).read_bytes()

    def test_mqpm_scheme(self, tmp_path):
        out = tmp_path / "mqpm"
        code = run([
            "design", "--preset", "o-band-i", "--scheme", "mqpm",
            "--pump-bw-nm", "3.0", "--out-dir", str(out),
        ])
        assert code == EXIT_OK
        data = json.loads((out / "design_result.json").read_text())
        assert data["scheme"] == "mqpm"
        assert data["alpha"] == 5.0
        assert data["purity"] > 0.85

    def test_dc_scheme_searches_the_periodic_bandwidth_once(self, tmp_path, monkeypatch):
        # the periodic optimum seeds the swarm and is also the P_PP baseline
        from purepole import cli

        calls = []
        search = cli.optimize_pump_bandwidth

        def counted(*args, **kwargs):
            calls.append(args)
            return search(*args, **kwargs)

        monkeypatch.setattr(cli, "optimize_pump_bandwidth", counted)
        out = tmp_path / "dc"
        code = run([
            "design", "--preset", "o-band-i", "--scheme", "dc", "--length-mm", "1.5",
            "--pso-particles", "2", "--pso-iterations", "1", "--out-dir", str(out),
        ])
        assert code in (EXIT_OK, EXIT_BELOW_THRESHOLD)
        assert len(calls) == 1
        data = json.loads((out / "design_result.json").read_text())
        assert data["pp_purity"] is not None

    def test_dc_scheme_small_budget(self, tmp_path):
        out = tmp_path / "dc"
        code = run([
            "design", "--preset", "o-band-i", "--scheme", "dc",
            "--pump-bw-nm", "3.0", "--pso-particles", "2",
            "--pso-iterations", "1", "--seed", "5", "--out-dir", str(out),
        ])
        assert code in (EXIT_OK, EXIT_BELOW_THRESHOLD)
        data = json.loads((out / "design_result.json").read_text())
        assert data["scheme"] == "dc"
        assert data["structure"]["kind"] == "duty-cycle"
        assert len(data["structure"]["fractions"]) == 132


class TestSweepRangeCommand:
    def test_pp_point_matches_design_purity(self, tmp_path):
        design_out = tmp_path / "design"
        assert run([
            "design", "--preset", "o-band-i", "--scheme", "pp",
            "--pump-bw-nm", "1.71", "--out-dir", str(design_out),
        ]) == EXIT_OK
        design_purity = json.loads((design_out / "design_result.json").read_text())["purity"]

        sweep_out = tmp_path / "sweep"
        assert run([
            "sweep-range", "--preset", "o-band-i", "--schemes", "pp",
            "--r-list", "10", "--pump-bw-nm", "1.71", "--out-dir", str(sweep_out),
        ]) == EXIT_OK
        line = [
            ln for ln in (sweep_out / "purity_vs_range_pp.csv").read_text().splitlines()
            if ln and not ln.startswith(("#", "R_over_dw"))
        ][0]
        assert float(line.split(",")[1]) == pytest.approx(design_purity, abs=1e-9)

    def test_optimized_scheme_requires_design_artifact(self, tmp_path, capsys):
        code = run([
            "sweep-range", "--preset", "o-band-i", "--schemes", "cl-scl",
            "--r-list", "10,20", "--out-dir", str(tmp_path / "x"),
        ])
        assert code == EXIT_CONFIG
        assert "design" in capsys.readouterr().err

    def test_sweep_from_design_artifact(self, tmp_path):
        design_out = tmp_path / "design"
        assert run([
            "design", "--preset", "o-band-i", "--scheme", "cl-scl",
            "--beta-ladder", "1", "--out-dir", str(design_out),
        ]) in (EXIT_OK, EXIT_BELOW_THRESHOLD)
        sweep_out = tmp_path / "sweep"
        assert run([
            "sweep-range", "--preset", "o-band-i", "--schemes", "pp,cl-scl",
            "--r-list", "5,10", "--design-dir", str(design_out),
            "--pump-bw-nm", "1.71", "--out-dir", str(sweep_out),
        ]) == EXIT_OK
        assert (sweep_out / "purity_vs_range_pp.csv").exists()
        assert (sweep_out / "purity_vs_range_cl-scl.csv").exists()

    def test_missing_schemes_exit_2(self, tmp_path):
        assert run([
            "sweep-range", "--preset", "o-band-i", "--r-list", "10",
            "--out-dir", str(tmp_path),
        ]) == EXIT_CONFIG


class TestRunConfig:
    def test_digest_ignores_execution_fields(self):
        a = RunConfig(command="design", preset="o-band-i", out_dir="/a")
        b = RunConfig(command="design", preset="o-band-i", out_dir="/b")
        assert a.digest() == b.digest()

    def test_digest_tracks_physics_fields(self):
        a = RunConfig(command="design", preset="o-band-i")
        b = RunConfig(command="design", preset="o-band-ii")
        assert a.digest() != b.digest()

    def test_json_round_trip(self):
        cfg = RunConfig(
            command="sweep-range", preset="o-band-i", schemes=("pp",),
            r_list=(10.0, 20.0), seed=3,
        )
        clone = RunConfig.from_dict(json.loads(cfg.to_json()))
        assert clone == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(Exception, match="unknown config key"):
            RunConfig.from_dict({"command": "design", "bogus": 1})

    def test_config_with_removed_threads_key_still_loads(self, tmp_path):
        cfg = RunConfig(
            command="gvm-map", pump_range_nm=(710.0, 710.0, 1.0),
            signal_range_nm=(1310.0, 1310.0, 1.0), out_dir=str(tmp_path / "map"),
        )
        data = json.loads(cfg.to_json())
        data["threads"] = 4
        path = tmp_path / "run_config.json"
        path.write_text(json.dumps(data))
        assert run(["gvm-map", "--config", str(path)]) == EXIT_OK


@pytest.mark.parametrize(
    "argv, key",
    [
        (["design", "--scheme", "pp", "--pump-bw-nm", "0"], "pump_bandwidth_nm"),
        (["design", "--scheme", "pp", "--pump-bw-nm", "-1"], "pump_bandwidth_nm"),
        (["sweep-range", "--schemes", "pp", "--r-list", "10", "--pump-bw-nm", "0"],
         "pump_bandwidth_nm"),
        (["design", "--scheme", "pp", "--length-mm", "0"], "length_mm"),
        (["design", "--scheme", "pp", "--pump-bw-nm", "1.71", "--r-mult", "0"], "r_mult"),
        (["design", "--scheme", "dc", "--pump-bw-nm", "3", "--pso-particles", "0"],
         "pso_particles"),
        (["design", "--scheme", "pp", "--pump-bw-nm", "1.71", "--purity-threshold", "2"],
         "purity_threshold"),
        (["design", "--scheme", "mqpm", "--mqpm-orders", "1,2"], "mqpm_orders"),
        (["sweep-range", "--schemes", "pp", "--r-list", "1,10", "--pump-bw-nm", "1.71"],
         "r_list"),
        (["design", "--scheme", "cl-scl", "--beta-ladder", "0"], "beta_ladder"),
        (["design", "--scheme", "cl-scl", "--beta-ladder", "1,-2"], "beta_ladder"),
        (["design", "--scheme", "dc", "--pump-bw-nm", "3", "--seed", "-1"], "seed"),
        (["design", "--scheme", "dc", "--pump-bw-nm", "3", "--pso-iterations", "-1"],
         "pso_iterations"),
        (["design", "--scheme", "mqpm", "--pump-bw-nm", "3", "--alpha", "0"], "alpha"),
    ],
)
def test_nonpositive_value_exit_2_names_key(tmp_path, capsys, argv, key):
    code = run([*argv, "--preset", "o-band-i", "--out-dir", str(tmp_path)])
    assert code == EXIT_CONFIG
    assert key in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, key",
    [
        (["--preset", "o-band-i", "--length-mm", "1.5", "--scheme", "cl-scl",
          "--pump-bw-nm", "3"], "pump_bandwidth_nm"),
        (["--preset", "o-band-i", "--scheme", "pp", "--alpha", "5"], "alpha"),
        (["--preset", "o-band-i", "--scheme", "cl-scl", "--alpha", "5"], "alpha"),
        (["--preset", "o-band-i", "--scheme", "dc", "--pump-bw-nm", "3", "--alpha", "5"],
         "alpha"),
        (["--preset", "o-band-i", "--scheme", "pp", "--pump-bw-nm", "1.71",
          "--beta-ladder", "1"], "beta_ladder"),
        (["--preset", "o-band-i", "--pump-nm", "720", "--scheme", "pp", "--pump-bw-nm", "1.71"],
         "pump_nm"),
        (["--preset", "o-band-i", "--signal-nm", "1300", "--scheme", "pp",
          "--pump-bw-nm", "1.71"], "signal_nm"),
        (["--preset", "o-band-i", "--signal-axis", "Y", "--scheme", "pp",
          "--pump-bw-nm", "1.71"], "signal_axis"),
        (["--preset", "o-band-i", "--scheme", "pp", "--pump-bw-nm", "1.71",
          "--mqpm-orders", "1,3"], "mqpm_orders"),
        (["--preset", "o-band-i", "--scheme", "mqpm", "--pump-bw-nm", "3",
          "--purity-threshold", "0.9"], "purity_threshold"),
    ],
)
def test_unread_design_input_exit_2_names_key(tmp_path, capsys, argv, key):
    out = tmp_path / "out"
    assert run(["design", *argv, "--out-dir", str(out)]) == EXIT_CONFIG
    assert key in capsys.readouterr().err
    assert not out.exists()


def test_replayed_config_with_null_inputs_is_valid(tmp_path):
    # run_config.json writes every field, unset ones as null
    out = tmp_path / "run"
    cfg = RunConfig(command="design", preset="o-band-i", scheme="pp",
                    pump_bandwidth_nm=1.71, out_dir=str(out))
    data = json.loads(cfg.to_json())
    assert data["alpha"] is None and data["pump_nm"] is None and data["beta_ladder"] is None
    assert RunConfig.from_dict(data) == cfg


def test_preset_fixes_the_signal_axis(tmp_path, capsys):
    # an explicit axis that differs from the default cannot override a preset
    out = tmp_path / "out"
    argv = ["sweep-range", "--preset", "o-band-i", "--signal-axis", "Y", "--schemes", "pp",
            "--r-list", "10", "--pump-bw-nm", "1.71", "--out-dir", str(out)]
    assert run(argv) == EXIT_CONFIG
    assert "signal_axis" in capsys.readouterr().err
    assert not out.exists()
    # a preset run's run_config.json carries the default axis, also for a
    # preset whose signal sits on Y, and replays
    cfg = RunConfig(command="design", preset="o-band-vi", scheme="pp", pump_bandwidth_nm=1.71)
    data = json.loads(cfg.to_json())
    assert data["signal_axis"] == "Z"
    assert RunConfig.from_dict(data) == cfg


_MAP_RANGES = ["--pump-range-nm", "710:710:1", "--signal-range-nm", "1310:1310:1"]


@pytest.mark.parametrize(
    "argv, key",
    [
        (["--preset", "o-band-ii"], "preset"),
        (["--pump-nm", "720"], "pump_nm"),
        (["--length-mm", "3"], "length_mm"),
        (["--r-mult", "20"], "r_mult"),
        (["--seed", "5"], "seed"),
    ],
)
def test_unread_gvm_map_input_exit_2_names_key(tmp_path, capsys, argv, key):
    out = tmp_path / "out"
    assert run(["gvm-map", *_MAP_RANGES, *argv, "--out-dir", str(out)]) == EXIT_CONFIG
    assert key in capsys.readouterr().err
    assert not out.exists()


def test_written_gvm_map_config_replays(tmp_path):
    # run_config.json carries every field at its default, and that stays valid
    first, second = tmp_path / "a", tmp_path / "b"
    assert run(["gvm-map", *_MAP_RANGES, "--out-dir", str(first)]) == EXIT_OK
    data = json.loads((first / "run_config.json").read_text())
    data["out_dir"] = str(second)
    path = tmp_path / "replay.json"
    path.write_text(json.dumps(data))
    assert run(["gvm-map", "--config", str(path)]) == EXIT_OK
    hashes_first, hashes_second = _file_hashes(first), _file_hashes(second)
    for hashes in (hashes_first, hashes_second):
        del hashes["run_config.json"]  # records its own out_dir
    assert hashes_first == hashes_second


@pytest.mark.parametrize(
    "config, key",
    [
        ("scheme = dc\n", "scheme"),
        ("alpha = 5\n", "alpha"),
        ("mqpm_orders = 1,3\n", "mqpm_orders"),
        ("purity_threshold = 0.9\n", "purity_threshold"),
        ("pump_bandwidth_nm = 3\n", "pump_bandwidth_nm"),
        ("schemes = pp\n", "schemes"),
    ],
)
def test_unread_gvm_map_config_key_exit_2_names_key(tmp_path, capsys, config, key):
    path = tmp_path / "map.cfg"
    path.write_text(config)
    out = tmp_path / "out"
    assert run(["gvm-map", "--config", str(path), *_MAP_RANGES, "--out-dir", str(out)]) \
        == EXIT_CONFIG
    assert key in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "config, key",
    [
        ("pump_range_nm = 1:2:3\n", "pump_range_nm"),
        ("signal_range_nm = 1300:1320:10\n", "signal_range_nm"),
        ("schemes = pp\n", "schemes"),
        ("r_list = 10\n", "r_list"),
        ("design_dir = elsewhere\n", "design_dir"),
    ],
)
def test_unread_design_config_key_exit_2_names_key(tmp_path, capsys, config, key):
    path = tmp_path / "design.cfg"
    path.write_text(config)
    out = tmp_path / "out"
    argv = ["design", "--config", str(path), "--preset", "o-band-i", "--scheme", "pp",
            "--pump-bw-nm", "1.71", "--out-dir", str(out)]
    assert run(argv) == EXIT_CONFIG
    assert key in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, key",
    [
        (["design", "--scheme", "pp", "--pump-bw-nm", "inf"], "pump_bandwidth_nm"),
        (["design", "--scheme", "pp", "--pump-bw-nm", "nan"], "pump_bandwidth_nm"),
        (["design", "--scheme", "pp", "--pump-bw-nm", "1.71", "--r-mult", "inf"], "r_mult"),
        (["design", "--scheme", "pp", "--pump-bw-nm", "1.71", "--length-mm", "inf"],
         "length_mm"),
        (["design", "--scheme", "mqpm", "--pump-bw-nm", "3", "--alpha", "inf"], "alpha"),
        (["design", "--scheme", "mqpm", "--pump-bw-nm", "3", "--alpha", "nan"], "alpha"),
        (["design", "--scheme", "cl-scl", "--beta-ladder", "1,inf"], "beta_ladder"),
        (["sweep-range", "--schemes", "pp", "--r-list", "10,inf", "--pump-bw-nm", "1.71"],
         "r_list"),
        (["design", "--scheme", "cl-scl", "--beta-ladder", "1,x"], "beta_ladder"),
        (["sweep-range", "--schemes", "pp", "--r-list", "10,y", "--pump-bw-nm", "1.71"],
         "r_list"),
        (["design", "--scheme", "mqpm", "--pump-bw-nm", "3", "--mqpm-orders", "1,3.5"],
         "mqpm_orders"),
    ],
)
def test_malformed_or_nonfinite_value_exit_2_names_key(tmp_path, capsys, argv, key):
    out = tmp_path / "out"
    assert run([*argv, "--preset", "o-band-i", "--out-dir", str(out)]) == EXIT_CONFIG
    assert key in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "text, key",
    [
        ("length_mm = abc\n", "length_mm"),
        ("pump_bandwidth_nm = inf\n", "pump_bandwidth_nm"),
        ('{"length_mm": 3,\n', "config"),
        ('{"r_mult": NaN}\n', "r_mult"),
        ('{"r_list": ["a"]}\n', "r_list"),
        (None, "config"),
        ('{"seed": Infinity}\n', "seed"),
        ('{"seed": true}\n', "seed"),
        ('{"length_mm": null}\n', "length_mm"),
        ('{"pso_particles": 2.5}\n', "pso_particles"),
        ('{"r_list": 10}\n', "r_list"),
        ("signal_axis = X\n", "signal_axis"),
    ],
)
def test_bad_config_file_exit_2_names_key(tmp_path, capsys, text, key):
    path = tmp_path / "run.cfg"
    if text is not None:
        path.write_text(text)
    out = tmp_path / "out"
    argv = ["sweep-range", "--config", str(path), "--preset", "o-band-i", "--out-dir", str(out)]
    assert run(argv) == EXIT_CONFIG
    assert key in capsys.readouterr().err
    assert not out.exists()


_SWEEP = ["sweep-range", "--preset", "o-band-i", "--schemes", "pp", "--r-list", "10",
          "--pump-bw-nm", "1.71"]
# stands for the directory of an o-band-i mqpm design in a 5 mm crystal
_MQPM_DESIGN = "<mqpm design dir>"


@pytest.fixture(scope="module")
def mqpm_design_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("mqpm-design")
    assert run(["design", "--preset", "o-band-i", "--scheme", "mqpm", "--pump-bw-nm", "3",
                "--out-dir", str(out)]) == EXIT_OK
    return str(out)
_DESIGN_PP = ["design", "--preset", "o-band-i", "--scheme", "pp", "--pump-bw-nm", "1.71"]


@pytest.mark.parametrize(
    "argv, text, key",
    [
        (_SWEEP, "scheme = dc\n", "scheme"),
        (_SWEEP, "alpha = 5\n", "alpha"),
        (_SWEEP, "r_mult = 20\n", "r_mult"),
        ([*_SWEEP, "--r-mult", "20"], None, "r_mult"),
        ([*_SWEEP[:4], "pp,foo", *_SWEEP[5:]], None, "schemes"),
        (_DESIGN_PP[:-4], "scheme = foo\n", "scheme"),
        (_DESIGN_PP, '{"out_dir": 5}\n', "out_dir"),
        (["design", "--pump-nm", "710", "--signal-nm", "1310", "--scheme", "pp",
          "--pump-bw-nm", "1.71"], "signal_axis = X\n", "signal_axis"),
        (["gvm-map", *_MAP_RANGES], "signal_axis = X\n", "signal_axis"),
        (["gvm-map", "--signal-range-nm", "1310:1310:1"], "pump_range_nm = 700:710\n",
         "pump_range_nm"),
        (["gvm-map", "--pump-range-nm", "710:710:1"],
         '{"signal_range_nm": [1300, 1320, 10, 1]}\n', "signal_range_nm"),
        (["gvm-map", "--signal-range-nm", "1310:1310:1", "--pump-range-nm", "700:710:0"],
         None, "pump_range_nm"),
        (["gvm-map", "--signal-range-nm", "1310:1310:1", "--pump-range-nm", "700:710:-5"],
         None, "pump_range_nm"),
        (["sweep-range", "--preset", "o-band-i", "--schemes", "dc,cl-scl", "--r-list", "10",
          "--design-dir", _MQPM_DESIGN, "--pump-bw-nm", "1.71"], None, "schemes"),
        (["sweep-range", "--preset", "o-band-ii", "--schemes", "mqpm", "--r-list", "10",
          "--design-dir", _MQPM_DESIGN], None, "design_dir"),
        (["sweep-range", "--preset", "o-band-i", "--length-mm", "2", "--schemes", "mqpm",
          "--r-list", "10", "--design-dir", _MQPM_DESIGN], None, "design_dir"),
        # a crystal of at most 2 l_c (37.7 um at o-band-i) for every scheme
        (["design", "--preset", "o-band-i", "--length-mm", "0.03", "--scheme", "pp"], None,
         "length_mm"),
        (["design", "--preset", "o-band-i", "--length-mm", "0.03", "--scheme", "mqpm"], None,
         "length_mm"),
        (["design", "--preset", "o-band-i", "--length-mm", "0.03", "--scheme", "dc",
          "--pump-bw-nm", "10"], None, "length_mm"),
        (["design", "--preset", "o-band-i", "--length-mm", "0.03", "--scheme", "cl-scl"], None,
         "length_mm"),
        (["sweep-range", "--preset", "o-band-i", "--length-mm", "0.03", "--schemes", "pp",
          "--r-list", "10"], None, "length_mm"),
        # a rung with domains below the 1 um floor (l_c/100 = 0.19 um) never runs
        (["design", "--preset", "o-band-i", "--scheme", "cl-scl", "--beta-ladder", "100"], None,
         "beta_ladder"),
        (["design", "--preset", "o-band-i", "--scheme", "cl-scl", "--beta-ladder", "100,1"],
         None, "beta_ladder"),
    ],
)
def test_invalid_run_input_exit_2_names_key(tmp_path, monkeypatch, capsys, request, argv, text,
                                            key):
    if _MQPM_DESIGN in argv:
        design = request.getfixturevalue("mqpm_design_dir")
        argv = [design if arg == _MQPM_DESIGN else arg for arg in argv]
    # runs in tmp_path, so an out_dir that slipped through lands there
    monkeypatch.chdir(tmp_path)
    if text is not None:
        Path("run.cfg").write_text(text)
        argv = [*argv, "--config", "run.cfg"]
    if "out_dir" not in (text or ""):
        argv = [*argv, "--out-dir", "out"]
    assert run(argv) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"config error: {key}:")
    assert sorted(p.name for p in tmp_path.iterdir()) == (["run.cfg"] if text else [])


@pytest.mark.parametrize(
    "content",
    ["{not json", '{"scheme": "cl"}', "[]", b"\xff\xfe",
     '{"scheme": "cl", "structure": {"kind": "uniform", "width_m": 1e-5}}'],
    ids=["malformed", "no-structure", "not-an-object", "not-text", "no-signs"],
)
def test_unreadable_design_artifact_exit_2(tmp_path, capsys, content):
    design = tmp_path / "design"
    design.mkdir()
    path = design / "design_result.json"
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content)
    argv = ["sweep-range", "--preset", "o-band-i", "--schemes", "cl-scl", "--r-list", "10",
            "--design-dir", str(design), "--out-dir", str(tmp_path / "out")]
    assert run(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: design_dir:") and str(path) in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["gvm-map", *_MAP_RANGES],
        ["design", "--preset", "o-band-i", "--scheme", "dc", "--length-mm", "1.5",
         "--pump-bw-nm", "3", "--pso-particles", "2", "--pso-iterations", "1", "--seed", "5"],
        ["sweep-range", "--preset", "o-band-i", "--schemes", "pp", "--r-list", "5,10",
         "--pump-bw-nm", "1.71", "--seed", "3"],
    ],
    ids=lambda argv: argv[0],
)
def test_written_config_replays_byte_identical(tmp_path, argv):
    out = tmp_path / "run"
    code = run([*argv, "--out-dir", str(out)])
    assert code in (EXIT_OK, EXIT_BELOW_THRESHOLD)
    first = _file_hashes(out)
    assert run([argv[0], "--config", str(out / "run_config.json")]) == code
    assert _file_hashes(out) == first


# a valid value away from its field default, for every key but command
_FLOATS = st.floats(2.0, 100.0)
_RANGES = st.tuples(st.floats(500.0, 900.0), st.floats(900.0, 1600.0), st.floats(0.1, 20.0))
_VALID = {
    "preset": st.sampled_from(sorted(PRESETS)),
    "pump_nm": st.floats(400.0, 1000.0),
    "signal_nm": st.floats(1000.0, 2000.0),
    "signal_axis": st.just("Y"),
    "length_mm": st.floats(0.1, 20.0),
    "scheme": st.sampled_from(["pp", "mqpm", "dc"]),
    "r_mult": _FLOATS,
    "out_dir": st.just("elsewhere"),
    "seed": st.integers(1, 2**32),
    "sellmeier": st.just("default"),
    "pump_range_nm": _RANGES,
    "signal_range_nm": _RANGES,
    "schemes": st.lists(st.sampled_from(list(_READS["design"])), min_size=1).map(tuple),
    "r_list": st.lists(_FLOATS, min_size=1).map(tuple),
    "design_dir": st.just("elsewhere"),
    "mqpm_orders": st.sampled_from([(1,), (1, 3), (1, 3, 5, 7)]),
    "alpha": st.floats(0.1, 20.0),
    "beta_ladder": st.lists(st.floats(0.1, 30.0), min_size=1).map(tuple),
    "purity_threshold": st.floats(0.5, 1.0),
    "pso_particles": st.integers(1, 100),
    "pso_iterations": st.integers(0, 500),
    "pump_bandwidth_nm": st.floats(0.1, 20.0),
}
_RUNS = [("gvm-map", None), ("sweep-range", None),
         *(("design", scheme) for scheme in _READS["design"])]


@st.composite
def _run_key_value(draw):
    command, scheme = draw(st.sampled_from(_RUNS))
    key = draw(st.sampled_from(sorted(_VALID.keys() - {"scheme"} if scheme else _VALID)))
    default = next(f.default for f in fields(RunConfig) if f.name == key)
    return command, scheme, key, draw(_VALID[key].filter(lambda v: v != default))


@settings(deadline=None, max_examples=300)
@given(_run_key_value(), st.booleans())
def test_read_table_property(run_key_value, as_json):
    """A key the run reads takes any valid value; any other key away from its
    default exits 2 naming it, from a JSON or a key = value config file."""
    command, scheme, key, value = run_key_value
    reads = _READS[command] if scheme is None else _READS[command][scheme]
    text = (json.dumps({key: value}) if as_json else
            f"{key} = {','.join(map(str, value)) if isinstance(value, tuple) else value}")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.cfg"
        path.write_text(text + "\n")
        argv = [command, *(["--scheme", scheme] if scheme else []), "--config", str(path)]
        if key in reads:
            assert getattr(build_run_config(argv), key) == value
            return
        with pytest.raises(ConfigError, match=f"^{key}: "):
            build_run_config(argv)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert run(argv) == EXIT_CONFIG
        assert err.getvalue().startswith(f"config error: {key}: ")
