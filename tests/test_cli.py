"""Command-line surface: flags, schemas, exit codes, determinism."""

import json
import math
import re

import numpy as np
import pytest

import subamp.cli
import subamp.pld
from subamp.cli import SCHEMA_LINE, main
from subamp.sampling import _KEYS_MAX_N

from reference_values import check_printed
from test_cli_golden import load_script


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = text.strip().splitlines()
    assert lines[0] == SCHEMA_LINE
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return header, rows


class TestProfileCommand:
    def test_single_point(self, capsys):
        code, out, _ = run_cli(
            capsys, "profile", "--family", "gaussian", "--theta", "1", "--eps", "1"
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["epsilon", "delta"]
        assert check_printed(float(rows[0][1]), "0.127")

    def test_zero_region(self, capsys):
        code, out, _ = run_cli(
            capsys, "profile", "--family", "laplace", "--theta", "1", "--eps", "2"
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert float(rows[0][1]) == 0.0

    def test_grid(self, capsys):
        code, out, _ = run_cli(
            capsys, "profile", "--family", "gaussian", "--theta", "1",
            "--eps-grid", "0.5:2.5:5",
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 5
        deltas = [float(r[1]) for r in rows]
        assert deltas == sorted(deltas, reverse=True)

    def test_invalid_theta_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, "profile", "--family", "gaussian", "--theta", "-1", "--eps", "1"
        )
        assert code == 2
        assert "theta" in err

    def test_unknown_flag_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["profile", "--family", "gaussian", "--theta", "1", "--frobnicate", "1"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("eps_flags", [["--eps", "1", "--eps-grid", "0:2:3"], []],
                             ids=["both", "neither"])
    def test_exactly_one_of_eps_and_eps_grid(self, capsys, eps_flags):
        with pytest.raises(SystemExit) as excinfo:
            main(["profile", "--family", "gaussian", "--theta", "1", *eps_flags])
        assert excinfo.value.code == 2
        assert capsys.readouterr().out == ""

    def test_output_file_matches_stdout(self, capsys, tmp_path):
        flags = ["profile", "--family", "gaussian", "--theta", "1", "--eps-grid", "0.5:2.5:3"]
        _, stdout, _ = run_cli(capsys, *flags)
        path = tmp_path / "out"
        code, out, _ = run_cli(capsys, *flags, "--output", str(path))
        assert (code, out) == (0, "")
        assert path.read_bytes() == stdout.encode()


class TestAmplifyCommand:
    def test_mustow_reference_row(self, capsys):
        code, out, _ = run_cli(
            capsys, "amplify", "--scheme", "mustow", "--n", "1000", "--b", "500",
            "--m", "400", "--family", "laplace", "--theta", "1", "--eps", "1",
        )
        assert code == 0
        header, rows = parse_csv(out)
        row = dict(zip(header, rows[0]))
        assert check_printed(float(row["eps_prime"]), "0.388")
        assert check_printed(float(row["delta_prime"]), "0.044")
        assert row["pa_class"] == "weak_type_i"
        assert row["neighboring"] == "S"

    def test_wor_reference_row(self, capsys):
        code, out, _ = run_cli(
            capsys, "amplify", "--scheme", "wor", "--n", "1000", "--m", "400",
            "--family", "laplace", "--theta", "1", "--eps", "1",
        )
        assert code == 0
        header, rows = parse_csv(out)
        row = dict(zip(header, rows[0]))
        assert check_printed(float(row["eps_prime"]), "0.523")
        assert float(row["delta_prime"]) == 0.0
        assert row["pa_class"] == "strong"

    def test_poisson_gamma_from_m_over_n(self, capsys):
        flags = ["--family", "laplace", "--theta", "1", "--eps", "1"]
        code, from_m, _ = run_cli(
            capsys, "amplify", "--scheme", "poisson", "--n", "1000", "--m", "100", *flags
        )
        _, from_gamma, _ = run_cli(
            capsys, "amplify", "--scheme", "poisson", "--n", "1000", "--gamma", "0.1", *flags
        )
        assert code == 0
        assert from_m == from_gamma

    def test_invariant_violation_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, "amplify", "--scheme", "mustwo", "--n", "1000", "--b", "50",
            "--m", "400", "--family", "laplace", "--theta", "1", "--eps", "1",
        )
        assert code == 2
        assert "m <= b" in err


class TestAlignedCommand:
    def test_curve_files(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "aligned", "--schemes", "wor,wr,mustow,mustww",
            "--families", "laplace,gaussian", "--thetas", "0.25,1",
            "--n", "1000", "--m", "400", "--b", "500",
            "--eps-grid", "0.5:3:6", "--output-dir", str(tmp_path),
        )
        assert code == 0
        files = sorted(tmp_path.glob("aligned_*.csv"))
        assert len(files) == 8
        text = files[0].read_text()
        header, rows = parse_csv(text)
        assert rows and header[0] == "theta"
        # both theta values present in each file
        assert {r[0] for r in rows} == {"0.25", "1"}

    def test_single_point_matches_amplify(self, capsys, tmp_path):
        run_cli(
            capsys, "aligned", "--schemes", "mustww", "--families", "laplace",
            "--thetas", "1", "--n", "1000", "--m", "400", "--b", "500",
            "--eps-grid", "1:1:1", "--output-dir", str(tmp_path),
        )
        header, rows = parse_csv((tmp_path / "aligned_laplace_mustww.csv").read_text())
        row = dict(zip(header, rows[0]))
        assert check_printed(float(row["eps_prime"]), "0.346")
        assert check_printed(float(row["delta_prime"]), "0.052")
        assert row["pa_class"] == "weak_type_i"

    @pytest.mark.parametrize("flags, message", [
        (["--thetas", "1,-1", "--eps-grid", "0.5:1:2"],
         "--thetas must be positive and finite, got -1.0"),
        (["--thetas", "1", "--eps-grid", "0:1:2"],
         "--eps-grid must be positive and finite, got '0:1:2'"),
        (["--thetas", "1", "--eps-grid", "2:1:2"],
         "--eps-grid must be a non-empty increasing 1-d grid, got '2:1:2'"),
    ], ids=["theta_negative", "eps_grid_zero", "eps_grid_decreasing"])
    def test_validation_error_names_the_flag(self, capsys, tmp_path, flags, message):
        code, out, err = run_cli(
            capsys, "aligned", "--schemes", "wor", "--families", "laplace", "--n", "100",
            "--m", "10", *flags, "--output-dir", str(tmp_path / "D"),
        )
        assert (code, out, err) == (2, "", f"error: {message}\n")
        assert not (tmp_path / "D").exists()

    def test_invalid_scheme_writes_nothing(self, capsys, tmp_path):
        # wor builds, mustow lacks --b: no file may be written for wor.
        code, out, err = run_cli(
            capsys, "aligned", "--schemes", "wor,mustow", "--families", "laplace",
            "--thetas", "1", "--n", "100", "--m", "10", "--eps-grid", "0.5:1:3",
            "--output-dir", str(tmp_path),
        )
        assert (code, out) == (2, "")
        assert "--b is required" in err
        assert not list(tmp_path.glob("**/*.csv"))

    def test_repeated_entries_written_once(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "aligned", "--schemes", "wor,wor", "--families", "laplace,laplace",
            "--thetas", "1", "--n", "100", "--m", "10", "--eps-grid", "0.5:1:2",
            "--output-dir", str(tmp_path),
        )
        path = tmp_path / "aligned_laplace_wor.csv"
        assert (code, out) == (0, f"{path}\n")
        assert list(tmp_path.glob("*.csv")) == [path]

    def test_repeated_theta_written_once(self, capsys, tmp_path):
        # 1 and 1.0 are one theta: one row per epsilon, not two.
        code, _, _ = run_cli(
            capsys, "aligned", "--schemes", "wor", "--families", "laplace",
            "--thetas", "1,1.0", "--n", "100", "--m", "10", "--eps-grid", "0.5:1:2",
            "--output-dir", str(tmp_path),
        )
        assert code == 0
        _, rows = parse_csv((tmp_path / "aligned_laplace_wor.csv").read_text())
        assert [(r[0], r[1]) for r in rows] == [("1", "0.5"), ("1", "1")]


class TestContourCommand:
    def test_grid_shape(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "contour", "--schemes", "mustow,mustww", "--n", "1000",
            "--b-range", "150:200", "--m-range", "100:150",
            "--family", "laplace", "--theta", "1", "--eps", "1",
            "--output-dir", str(tmp_path),
        )
        assert code == 0
        for tag in ("mustow", "mustww"):
            header, rows = parse_csv((tmp_path / f"contour_{tag}.csv").read_text())
            assert len(rows) == 51 * 51
            assert "eta" in header and "delta_gap" in header

    def test_eps_zero_without_family(self, capsys, tmp_path):
        outputs = {}
        for eps in ("0", "1"):
            outdir = tmp_path / eps
            code, _, _ = run_cli(
                capsys, "contour", "--schemes", "mustow", "--n", "1000",
                "--b-range", "150:151", "--m-range", "100:101", "--eps", eps,
                "--output-dir", str(outdir),
            )
            assert code == 0
            outputs[eps] = parse_csv((outdir / "contour_mustow.csv").read_text())
        header, rows = outputs["0"]
        col = header.index("eps_prime")
        assert all(float(row[col]) == 0.0 for row in rows)
        assert all(float(row[col]) > 0.0 for row in outputs["1"][1])

    def test_family_without_theta(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "contour", "--schemes", "mustow", "--n", "1000",
            "--b-range", "150:151", "--m-range", "100:101",
            "--family", "gaussian", "--eps", "1", "--output-dir", str(tmp_path),
        )
        assert code == 2
        assert "--theta" in err

    def test_theta_without_family(self, capsys, tmp_path):
        code, out, err = run_cli(
            capsys, "contour", "--schemes", "mustow", "--n", "1000",
            "--b-range", "150:150", "--m-range", "100:100",
            "--theta", "2", "--eps", "1", "--output-dir", str(tmp_path),
        )
        assert (code, out) == (2, "")
        assert "--theta" in err
        assert not list(tmp_path.glob("**/*.csv"))

    def test_repeated_scheme_written_once(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "contour", "--schemes", "mustow,mustow", "--n", "1000",
            "--b-range", "150:151", "--m-range", "100:101", "--output-dir", str(tmp_path),
        )
        path = tmp_path / "contour_mustow.csv"
        assert (code, out) == (0, f"{path}\n")
        assert list(tmp_path.glob("*.csv")) == [path]

    def test_rejects_scheme_without_b(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "contour", "--schemes", "wor", "--n", "1000",
            "--b-range", "150:200", "--m-range", "100:150",
            "--output-dir", str(tmp_path),
        )
        assert code == 2

    @pytest.mark.parametrize("schemes, m_range", [
        ("mustow,mustwo", "150:152"),  # mustwo needs m <= b; (150, 151) is not
        ("mustow,wor", "100:101"),
    ])
    def test_invalid_cell_writes_nothing(self, capsys, tmp_path, schemes, m_range):
        code, out, _ = run_cli(
            capsys, "contour", "--schemes", schemes, "--n", "1000",
            "--b-range", "150:151", "--m-range", m_range, "--output-dir", str(tmp_path),
        )
        assert (code, out) == (2, "")
        assert not list(tmp_path.glob("**/*.csv"))


@pytest.mark.parametrize("tag, argv", [
    # Neither --m nor --b: the tag is looked up before any field's flag.
    ("foo", ["aligned", "--schemes", "foo"]),
    ("mustfoo", ["aligned", "--schemes", "wor,mustfoo", "--m", "10"]),
    ("foo", ["contour", "--schemes", "mustow,foo", "--b-range", "150:151",
             "--m-range", "100:101"]),
], ids=lambda v: v if isinstance(v, str) else v[0])
def test_unknown_scheme_is_named_and_writes_nothing(capsys, tmp_path, tag, argv):
    if argv[0] == "aligned":
        argv = [*argv, "--families", "laplace", "--thetas", "1", "--eps-grid", "0.5:1:2"]
    code, out, err = run_cli(capsys, *argv, "--n", "1000", "--output-dir", str(tmp_path))
    assert (code, out) == (2, "")
    assert f"unknown scheme '{tag}'" in err
    assert not list(tmp_path.glob("**/*.csv"))


@pytest.mark.parametrize("argv, flag", [
    (["profile", "--family", "gaussian", "--theta", "1", "--eps-grid", "0:1"], "--eps-grid"),
    (["contour", "--schemes", "mustow", "--n", "100", "--b-range", "3", "--m-range", "2:3"],
     "--b-range"),
], ids=["eps_grid", "b_range"])
def test_malformed_range_flag_is_named(capsys, tmp_path, argv, flag):
    if argv[0] == "contour":
        argv = [*argv, "--output-dir", str(tmp_path)]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {flag} expects ")


@pytest.mark.parametrize("argv, target", [
    (["profile", "--family", "gaussian", "--theta", "1", "--eps", "1", "--output"],
     "missing/x.csv"),
    (["contour", "--schemes", "mustow", "--n", "100", "--b-range", "2:3", "--m-range", "2:3",
      "--output-dir"], "file"),
    (["experiment", "--config"], "directory"),
], ids=["output_in_missing_dir", "output_dir_is_a_file", "config_is_a_directory"])
def test_file_system_error_exits_2(capsys, tmp_path, argv, target):
    # One error line naming the path, like any validation error.
    (tmp_path / "file").touch()
    (tmp_path / "directory").mkdir()
    path = tmp_path / target
    code, out, err = run_cli(capsys, *argv, str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(path) in err


@pytest.mark.parametrize("argv, message", [
    (["profile", "--family", "gaussian", "--theta", "1", "--eps-grid", "0:1:0"],
     "--eps-grid produced an empty grid"),
    (["contour", "--schemes", "mustow", "--n", "10", "--b-range", "5:4", "--m-range", "2:2"],
     "--b-range range is empty: '5:4'"),
    (["amplify", "--scheme", "wor", "--n", "10", "--m", "3", "--family", "gaussian",
      "--theta", "1", "--eps", "0"], "--eps must be positive and finite, got 0.0"),
    (["contour", "--schemes", "mustow", "--n", "10", "--b-range", "4:5", "--m-range", "2:2",
      "--family", "gaussian", "--theta", "1", "--eps", "0"],
     "--eps must be positive and finite, got 0.0"),
    (["experiment", "--config", "{"], "--config is not valid JSON: Expecting property name "
     "enclosed in double quotes: line 1 column 2 (char 1)"),
    (["experiment", "--config", '{"experiment": "nope"}'],
     "config field 'experiment' must be 'bootstrap' or 'dpsgd_linear', got 'nope'"),
    (["profile", "--family", "gaussian", "--theta", "1", "--eps", "-1"],
     "--eps must be finite and >= 0, got -1.0"),
    (["profile", "--family", "gaussian", "--theta", "1", "--eps-grid=-1:1:3"],
     "--eps-grid must be finite and >= 0, got '-1:1:3'"),
    (["profile", "--family", "gaussian", "--theta", "1", "--eps-grid", "1:nan:3"],
     "--eps-grid must be finite and >= 0, got '1:nan:3'"),
    (["sample-stats", "--scheme", "poisson", "--gamma", "0.5"],
     "--n is required for scheme poisson"),
    (["sample-stats", "--scheme", "wor", "--n", "10", "--m", "3", "--trials", "0"],
     "--trials must be a positive integer, got 0"),
    (["sample-stats", "--scheme", "wor", "--n", "10", "--m", "3", "--trials", "5",
      "--seed", "-1"], "--seed must be an integer >= 0, got -1"),
    (["contour", "--schemes", "mustow", "--n", "1000", "--b-range", "150:150",
      "--m-range", "100:100", "--eps", "-1"], "--eps must be finite and >= 0, got -1.0"),
    (["contour", "--schemes", "mustow", "--n", "1000", "--b-range", "150:150",
      "--m-range", "100:100", "--family", "gaussian", "--theta", "1"],
     "--eps is required when --family is given"),
    (["account", "--scheme", "wor", "--n", "100", "--m", "10", "--sigma", "2",
      "--k-list", "1,0", "--eps-list", "1"], "--k-list must be a positive integer, got 0"),
    (["account", "--scheme", "wor", "--n", "100", "--m", "10", "--sigma", "2",
      "--k-list", "1", "--eps-list", "1,-1"], "--eps-list must be finite and >= 0, got -1.0"),
    (["experiment", "--config", '{"experiment": "dpsgd_linear", "n": 300, "repeats": 1, '
      '"n_test": 0, "schemes": [{"scheme": "wor", "n": 300, "m": 30}]}'],
     "n_test must be a positive integer, got 0"),
    (["experiment", "--config", '{"experiment": "bootstrap", "n": 100, '
      '"schemes": [{"scheme": "poisson", "gamma": 0.1}]}'],
     "config field 'schemes'[0] must have n equal to config field 'n' (100), got None"),
    (["experiment", "--config", '{"experiment": "bootstrap", "n": 100, '
      '"schemes": [{"scheme": "wor", "n": 50, "m": 10}]}'],
     "config field 'schemes'[0] must have n equal to config field 'n' (100), got 50"),
    (["experiment", "--config", '{"experiment": "dpsgd_linear", "n": 100, '
      '"schemes": [{"scheme": "poisson", "gamma": 0.1}]}'],
     "config field 'schemes'[0] must have n equal to config field 'n' (100), got None"),
    (["experiment", "--config", '{"experiment": "dpsgd_linear", "n": 100, '
      '"schemes": [{"scheme": "wor", "n": 100, "m": 10}, {"scheme": "wor", "n": 50, "m": 10}]}'],
     "config field 'schemes'[1] must have n equal to config field 'n' (100), got 50"),
], ids=["empty_eps_grid", "empty_b_range", "amplify_eps_zero", "contour_eps_zero",
        "config_not_json", "unknown_experiment", "profile_eps_negative",
        "profile_eps_grid_negative", "profile_eps_grid_nan", "sample_stats_poisson_without_n",
        "sample_stats_trials_zero", "sample_stats_seed_negative",
        "contour_eps_negative", "contour_family_without_eps", "account_k_zero", "account_eps_negative",
        "experiment_n_test_zero", "bootstrap_poisson_without_n", "bootstrap_scheme_n_differs",
        "dpsgd_poisson_without_n", "dpsgd_scheme_n_differs"])
def test_validation_error_exits_2(capsys, tmp_path, argv, message):
    out_dir = tmp_path / "D"
    if argv[0] == "contour":
        argv = [*argv, "--output-dir", str(out_dir)]
    elif argv[0] == "experiment":
        path = tmp_path / "cfg.json"
        path.write_text(argv[-1])
        argv = [*argv[:-1], str(path)]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert not out_dir.exists()


@pytest.mark.parametrize("script, argv, message", [
    ("run_pa_table.py", ["--eps", "-1"], "--eps must be finite and >= 0, got -1.0"),
    ("run_pa_table.py", ["--eps", ""], "--eps expects a comma list of numbers, got ''"),
    ("run_pa_table.py", ["--thetas", "1,0"], "--thetas must be positive and finite, got 0.0"),
    ("run_pa_table.py", ["--n", "10", "--m", "400"],
     "WOR requires m <= n (stage I is without replacement), got m=400, n=10"),
    ("run_unique_sample_stats.py", ["--trials", "0"],
     "--trials must be a positive integer, got 0"),
    ("run_unique_sample_stats.py", ["--seed", "-1"], "--seed must be an integer >= 0, got -1"),
], ids=["pa_eps_negative", "pa_eps_empty", "pa_theta_zero", "pa_m_above_n", "unique_trials_zero",
        "unique_seed_negative"])
def test_script_validation_error_exits_2(capsys, script, argv, message):
    # The scripts that do not go through main map errors as main does.
    code = load_script(script).main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("argv", [
    ["amplify", "--scheme", "wor", "--n", "10", "--m", "3", "--family", "gaussian",
     "--theta", "1", "--eps", "709.8"],
    ["aligned", "--schemes", "wor,mustow", "--families", "gaussian", "--thetas", "1",
     "--n", "10", "--b", "5", "--m", "3", "--eps-grid", "1:800:3"],
    ["contour", "--schemes", "mustow", "--n", "10", "--b-range", "4:5", "--m-range", "2:3",
     "--family", "gaussian", "--theta", "1", "--eps", "800"],
    ["experiment", "--config"],
], ids=["amplify", "aligned", "contour", "experiment"])
def test_eps_where_e_to_the_eps_overflows(capsys, tmp_path, argv):
    # e^eps overflows above eps ~ 709.78; every value is still finite.
    if argv[0] in ("aligned", "contour"):
        argv = [*argv, "--output-dir", str(tmp_path)]
    elif argv[0] == "experiment":
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "experiment": "bootstrap", "n": 100, "eps_prime": 800, "repeats": 1,
            "t_boot": 20, "schemes": [{"scheme": "wor", "n": 100, "m": 10}],
        }))
        argv = [*argv, str(path)]
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    tables = [p.read_text() for p in sorted(tmp_path.glob("*.csv"))] or [out]
    for text in tables:
        _, rows = parse_csv(text)
        assert rows
        assert not {"inf", "-inf", "nan"} & {v for row in rows for v in row}


class TestContourGridsScript:
    """scripts/run_contour_grids.py: --output-dir, and every other flag passed on."""

    @staticmethod
    def _runs(monkeypatch, *argv):
        script, runs = load_script("run_contour_grids.py"), []
        monkeypatch.setattr(script, "cli_main", lambda run: runs.append(run) or 0)
        return script.main(list(argv)), runs

    @pytest.mark.parametrize("flags", [["--output-dir", "out"], ["--output-dir=out"]])
    def test_output_dir(self, monkeypatch, flags):
        code, runs = self._runs(monkeypatch, *flags)
        assert code == 0
        assert [run[run.index("--output-dir") + 1] for run in runs] == [
            "out/laplace", "out/gaussian",
        ]
        assert all(run.count("--output-dir") == 1 for run in runs)

    def test_output_dir_without_value_exits_2(self, monkeypatch, capsys):
        with pytest.raises(SystemExit) as exc:
            self._runs(monkeypatch, "--theta", "2", "--output-dir")
        assert exc.value.code == 2
        assert "--output-dir" in capsys.readouterr().err

    def test_other_flags_reach_contour(self, monkeypatch):
        code, runs = self._runs(
            monkeypatch, "--theta", "2", "--output-dir", "out", "--eps", "0.5",
        )
        assert code == 0
        assert len(runs) == 2
        assert all(run[0] == "contour" and run[-4:] == ["--theta", "2", "--eps", "0.5"]
                   for run in runs)


class TestAccountCommand:
    def test_verify_pass(self, capsys):
        code, out, err = run_cli(
            capsys, "account", "--scheme", "poisson", "--gamma", "0.02",
            "--n", "100", "--sigma", "2", "--k-list", "1", "--eps-list", "0.5",
            "--L", "10", "--r", "65536", "--verify",
        )
        assert code == 0
        assert "PASS" in err
        header, rows = parse_csv(out)
        assert header[:5] == ["scheme", "n", "b", "m", "sigma"]
        assert header[5:] == [
            "k", "epsilon", "delta_lower", "delta_approx", "delta_upper",
            "grid_r", "trunc_L",
        ]

    def test_repeated_k_and_eps_are_computed_once(self, capsys):
        # Repeats are dropped after conversion, in order of first appearance.
        code, out, err = run_cli(
            capsys, "account", "--scheme", "wor", "--n", "100", "--m", "10", "--sigma", "1",
            "--k-list", "2,1,2", "--eps-list", "1,1.0,0.5", "--r", "1024",
        )
        assert (code, err) == (0, "")
        assert [row[5:7] for row in parse_csv(out)[1]] == [
            ["2", "1"], ["2", "0.5"], ["1", "1"], ["1", "0.5"],
        ]

    @pytest.mark.parametrize("flag, spec, what", [
        ("--k-list", "1,,2", "integers"), ("--k-list", "", "integers"),
        ("--k-list", "1.5", "integers"), ("--eps-list", "1,x", "numbers"),
        ("--eps-list", "", "numbers"),
    ])
    def test_malformed_list_names_its_flag(self, capsys, flag, spec, what):
        lists = {"--k-list": "1", "--eps-list": "1", flag: spec}
        code, out, err = run_cli(
            capsys, "account", "--scheme", "wor", "--n", "100", "--m", "10", "--sigma", "1",
            "--r", "1024", *(arg for item in lists.items() for arg in item),
        )
        assert (code, out) == (2, "")
        assert err == f"error: {flag} expects a comma list of {what}, got {spec!r}\n"

    def test_delta_falling_with_k_exits_3(self, capsys):
        # The k = 2 bracket of WR(10, 100) lies below k = 1's: an error line
        # for k = 2, the k = 1 row, and exit 3.
        code, out, err = run_cli(
            capsys, "account", "--scheme", "wr", "--n", "10", "--m", "100", "--sigma", "1",
            "--k-list", "1,2", "--eps-list", "1", "--r", "16384",
        )
        assert code == 3
        assert [row[5] for row in parse_csv(out)[1]] == ["1"]
        assert err.startswith("error: k=2 eps=1.0: delta_upper=0.000214") and err.count("\n") == 1

    def test_verify_checks_k_one_only(self, capsys):
        # k = 2 gets its row and no verify line: the quadrature is a k = 1 check.
        code, out, err = run_cli(
            capsys, "account", "--scheme", "wor", "--n", "100", "--m", "10", "--sigma", "1",
            "--k-list", "1,2", "--eps-list", "1", "--r", "4096", "--verify",
        )
        assert code == 0
        assert [row[5] for row in parse_csv(out)[1]] == ["1", "2"]
        assert err.startswith("verify k=1 eps=1: ") and err.count("\n") == 1

    def test_non_finite_composition_exits_3(self, capsys, monkeypatch):
        # A NaN out of the inverse transform is a numerical failure whose
        # message names the grid and the scheme.
        irfft = np.fft.irfft
        monkeypatch.setattr(np.fft, "irfft", lambda *a, **k: irfft(*a, **k) * math.nan)
        code, out, err = run_cli(
            capsys, "account", "--scheme", "mustow", "--n", "100", "--b", "20", "--m", "10",
            "--sigma", "1", "--k-list", "2", "--eps-list", "1", "--L", "8", "--r", "1024",
        )
        assert (code, out) == (3, "")
        assert err == (
            "numerical failure: non-finite values in intensities (1024 of 1024 entries; "
            "grid_r=1024, trunc_L=8, scheme=mustow)\n"
        )

    def test_input_too_large_to_allocate_exits_2(self, capsys, monkeypatch):
        # The --r of 2^40 that numpy cannot allocate, without allocating it.
        def discretize(*args):
            raise MemoryError("Unable to allocate 8.00 TiB for an array")

        monkeypatch.setattr(subamp.cli, "discretize", discretize)
        code, out, err = run_cli(
            capsys, "account", "--scheme", "wor", "--n", "10", "--m", "3", "--sigma", "1",
            "--k-list", "1", "--eps-list", "1", "--r", "1099511627776",
        )
        assert (code, out) == (2, "")
        assert err == "error: out of memory: Unable to allocate 8.00 TiB for an array\n"

    def test_verify_without_k_one_exits_2(self, capsys):
        code, out, err = run_cli(
            capsys, "account", "--scheme", "mustow", "--n", "10000", "--b", "118",
            "--m", "200", "--sigma", "4", "--k-list", "200,1000", "--eps-list", "1",
            "--r", "30000", "--verify",
        )
        assert code == 2
        assert out == ""
        assert err == "error: --verify needs k = 1 in --k-list\n"

    def test_epsilon_beyond_grid_exits_3(self, capsys):
        code, _, err = run_cli(
            capsys, "account", "--scheme", "poisson", "--gamma", "0.02",
            "--n", "100", "--sigma", "2", "--k-list", "1", "--eps-list", "12",
            "--L", "10", "--r", "4096",
        )
        assert code == 3
        assert "grid" in err

    def test_failed_verify_quadrature_exits_3(self, capsys, monkeypatch):
        # A quadrature whose error estimate misses the tolerance is a
        # numerical failure of delta_direct, not a crash.
        from scipy import integrate

        quad = integrate.quad
        monkeypatch.setattr(integrate, "quad", lambda *a, **k: (quad(*a, **k)[0], 1.0))
        code, _, err = run_cli(
            capsys, "account", "--scheme", "wor", "--n", "1000", "--m", "200",
            "--sigma", "2", "--k-list", "1", "--eps-list", "1", "--r", "4096", "--verify",
        )
        assert code == 3
        assert err.startswith("numerical failure: delta quadrature achieved error")

    @pytest.mark.parametrize("flags", [
        ["--scheme", "poisson", "--n", "10", "--m", "3", "--L", "6", "--r", "64"],
        ["--scheme", "wr", "--n", "10", "--m", "1000", "--r", "16384"],
    ], ids=["poisson_r64", "wr_10_1000"])
    def test_verify_passes_a_wide_bracket(self, capsys, flags):
        # Brackets far wider than quadrature's error estimate that hold it:
        # [0.00598, 0.0102] against 0.00768 for Poisson at r = 64.
        code, out, err = run_cli(
            capsys, "account", *flags, "--sigma", "1", "--k-list", "1", "--eps-list", "1",
            "--verify",
        )
        assert code == 0 and len(parse_csv(out)[1]) == 1
        assert re.fullmatch(
            r"verify k=1 eps=1: bracket=\[\S+, \S+\] quad=\S+ err=\S+ PASS\n", err
        )

    def test_quadrature_outside_the_bracket_exits_3(self, capsys, monkeypatch):
        # Quadrature moved 1e-3 above the bracket [0.0076809, 0.0076849],
        # its error estimate unchanged: the row, a FAIL line and exit 3.
        from scipy import integrate

        quad = integrate.quad

        def moved(*args, **kwargs):
            value, err = quad(*args, **kwargs)
            return value + 1e-3, err

        monkeypatch.setattr(integrate, "quad", moved)
        code, out, err = run_cli(
            capsys, "account", "--scheme", "poisson", "--n", "10", "--m", "3",
            "--sigma", "1", "--k-list", "1", "--eps-list", "1", "--L", "6", "--r", "65536",
            "--verify",
        )
        assert code == 3 and len(parse_csv(out)[1]) == 1
        assert err.startswith("verify k=1 eps=1: bracket=[") and err.endswith(" FAIL\n")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["account", "--scheme", "wor", "--n", "10", "--m", "3", "--sigma", "1",
         "--k-list", "1", "--eps-list", "1", "--verify", "--verify-tol", "1e-6"],
        ["profile", "--family", "gaussian", "--theta", "1", "--eps", "1", "--format", "json"],
    ], ids=["verify_tol", "format"])
    def test_removed_flags_are_unrecognized(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and "error: unrecognized arguments: " in err

    @pytest.mark.parametrize("budget, code", [(1, 0), (0, 3)])
    def test_newton_budget(self, capsys, monkeypatch, budget, code):
        # The presolve's start misses the tolerance at about half of this
        # grid's edges and one Newton step meets it everywhere, so a budget
        # of one returns; a budget of none is a numerical failure.
        monkeypatch.setattr(subamp.pld, "_NEWTON_MAX_ITER", budget)
        got, out, err = run_cli(
            capsys, "account", "--scheme", "mustww", "--n", "1000", "--b", "10", "--m", "500",
            "--sigma", "4", "--k-list", "1", "--eps-list", "1", "--L", "10", "--r", "20000",
        )
        assert got == code
        if code == 0:
            assert err == "" and len(parse_csv(out)[1]) == 1
        else:
            assert err.startswith("numerical failure: Newton inversion did not reach")

    @pytest.mark.parametrize("sigma", ["0.01", "0.03"])
    def test_wor_where_the_closed_form_underflows(self, capsys, sigma):
        # (q e^{-1/(2 sigma^2)})^2 underflows below sigma ~ 0.038 at q = 0.1;
        # Newton inverts there. The mass at loss ~0 and the mass beyond L
        # give the same row as the closed form at sigma = 0.045.
        def row(value):
            code, out, err = run_cli(
                capsys, "account", "--scheme", "wor", "--n", "100", "--m", "10",
                "--sigma", value, "--k-list", "1", "--eps-list", "1", "--r", "1024",
            )
            assert (code, err) == (0, "")
            return parse_csv(out)[1][0]

        newton, closed = row(sigma), row("0.045")
        assert newton[7:] == closed[7:]

    @pytest.mark.parametrize("scheme", ["wor", "wr"])
    def test_sigma_whose_square_underflows_exits_2(self, capsys, scheme):
        code, out, err = run_cli(
            capsys, "account", "--scheme", scheme, "--n", "100", "--m", "10",
            "--sigma", "1e-200", "--k-list", "1", "--eps-list", "1", "--r", "1024",
        )
        assert (code, out) == (2, "")
        assert err == "error: sigma=1e-200 is too small: sigma**2 underflows\n"

    @pytest.mark.parametrize("sigma", ["1e50", "1e153", "3e153", "1e154", "1e160", "1e200"])
    @pytest.mark.parametrize("scheme", ["poisson", "wor", "wr", "mustwo", "mustow", "mustww"])
    def test_large_sigma_gives_a_row_or_exits_2(self, capsys, scheme, sigma):
        # Warnings are errors here: an overflow anywhere fails the case.
        code, out, err = run_cli(
            capsys, "account", "--scheme", scheme, "--n", "1000", "--b", "100", "--m", "50",
            "--sigma", sigma, "--k-list", "1", "--eps-list", "1", "--r", "1024", "--verify",
        )
        if float(sigma) <= 1e50:
            assert code == 0 and len(parse_csv(out)[1]) == 1
            assert err.startswith("verify k=1 eps=1: ") and err.endswith(" PASS\n")
        else:
            assert (code, out) == (2, "")
            assert err == f"error: sigma={float(sigma)!r} is too large: the limit is 1e+50\n"

    @pytest.mark.parametrize("trunc_L", [350.0, math.nextafter(350.0, math.inf), 1000.0, 1e308])
    @pytest.mark.parametrize("scheme", ["poisson", "wor", "wr", "mustwo", "mustow", "mustww"])
    def test_wide_grid_gives_a_row_or_exits_2(self, capsys, scheme, trunc_L):
        # Warnings are errors here: an overflow in a closed-form inverse fails the case.
        code, out, err = run_cli(
            capsys, "account", "--scheme", scheme, "--gamma", "0.1", "--n", "100",
            "--b", "50", "--m", "10", "--sigma", "1", "--k-list", "1,2", "--eps-list", "1",
            "--L", repr(trunc_L), "--r", "4096",
        )
        if trunc_L <= subamp.pld._TRUNC_L_MAX:
            assert (code, err) == (0, "") and len(parse_csv(out)[1]) == 2
        else:
            assert (code, out) == (2, "")
            assert err == f"error: trunc_L={trunc_L!r} is too large: the limit is 350\n"

    def test_zero_sigma_exits_2(self, capsys):
        code, out, err = run_cli(
            capsys, "account", "--scheme", "wor", "--n", "100", "--m", "10",
            "--sigma", "0", "--k-list", "1", "--eps-list", "1",
        )
        assert (code, out) == (2, "")
        assert "sigma must be positive" in err

    def test_single_record_first_stage(self, capsys):
        # MUSTow with b = 1: the first stage keeps one record, which the
        # second stage then draws m times.
        code, out, err = run_cli(
            capsys, "account", "--scheme", "mustow", "--n", "1000", "--b", "1",
            "--m", "5", "--sigma", "2", "--r", "64", "--k-list", "1", "--eps-list", "0",
        )
        assert code == 0, err
        _, rows = parse_csv(out)
        assert len(rows) == 1

    def test_bounds_bracket(self, capsys):
        code, out, _ = run_cli(
            capsys, "account", "--scheme", "wor", "--n", "1000", "--m", "200",
            "--sigma", "2", "--k-list", "1,4", "--eps-list", "0.5",
            "--L", "8", "--r", "32768",
        )
        assert code == 0
        _, rows = parse_csv(out)
        for row in rows:
            lo, mid, hi = (float(v) for v in row[7:10])
            assert lo <= mid <= hi


class TestSampleStatsCommand:
    def test_wor_row(self, capsys):
        code, out, _ = run_cli(
            capsys, "sample-stats", "--scheme", "wor", "--n", "300", "--m", "30",
            "--trials", "2000", "--seed", "1",
        )
        assert code == 0
        header, rows = parse_csv(out)
        row = dict(zip(header, rows[0]))
        assert row["unique_min"] == row["unique_max"] == "30"
        assert float(row["eta_hat"]) == pytest.approx(0.1, abs=0.03)


class TestExperimentCommand:
    def test_missing_config_exits_2(self, capsys, tmp_path):
        path = tmp_path / "nope.json"
        code, _, err = run_cli(capsys, "experiment", "--config", str(path))
        assert code == 2
        assert err.startswith("error: ") and str(path) in err

    @pytest.mark.parametrize("config", [
        {"experiment": "bootstrap", "schemes": [{"scheme": "wor", "n": 300, "m": 30}]},
        {"experiment": "dpsgd_linear", "n": 400},
        {"experiment": "bootstrap", "n": 300, "schemes": [5]},
        {"experiment": "bootstrap", "n": 300.5, "repeats": 1, "t_boot": 10,
         "schemes": [{"scheme": "wor", "n": 300, "m": 30}]},
        {"experiment": "bootstrap", "n": 300, "seed": 2.5, "repeats": 1, "t_boot": 10,
         "schemes": [{"scheme": "wor", "n": 300, "m": 30}]},
    ])
    def test_missing_or_malformed_field_exits_2(self, capsys, tmp_path, config):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        code, _, err = run_cli(capsys, "experiment", "--config", str(path))
        assert code == 2
        assert "config" in err

    @pytest.mark.parametrize("bounds", [[1, 2, 3], 4], ids=repr)
    def test_bounds_that_are_not_a_pair_exit_2(self, capsys, tmp_path, bounds):
        # Formerly "too many values to unpack (expected 2)" and "config has a
        # malformed field: 'int' object is not iterable".
        cfg = {"experiment": "bootstrap", "n": 300, "repeats": 1, "t_boot": 10, "bounds": bounds,
               "schemes": [{"scheme": "wor", "n": 300, "m": 30}]}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code, out, err = run_cli(capsys, "experiment", "--config", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: bounds must be a pair (L_clip, U_clip), got {bounds!r}\n"

    @pytest.mark.parametrize("kind, field, value", [
        ("dpsgd_linear", "learning_rate", math.nan),
        ("dpsgd_linear", "learning_rate", math.inf),
        ("dpsgd_linear", "clip_c", math.nan),
        ("bootstrap", "bounds", [-4.0, math.inf]),
    ])
    def test_non_finite_real_exits_2(self, capsys, tmp_path, kind, field, value):
        # An input error (2), not the numerical failure (3) of a diverged loss.
        cfg = {"experiment": kind, "n": 300, "repeats": 1, "iterations": 5, "t_boot": 10,
               "schemes": [{"scheme": "wor", "n": 300, "m": 30}], field: value}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code, out, err = run_cli(capsys, "experiment", "--config", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {field} must be")

    @pytest.mark.parametrize("kind, fields, message", [
        ("bootstrap", {"eps_prime": "0.1"}, "eps_prime must be positive and finite, got '0.1'"),
        ("bootstrap", {"delta_base": True}, "delta_base must lie in (0, 1), got True"),
        ("dpsgd_linear", {"eps_prime": True, "clip_c": "3", "learning_rate": True},
         "eps_prime must be positive and finite, got True"),
        ("dpsgd_linear", {"clip_c": "3"}, "clip_c must be positive and finite, got '3'"),
        ("dpsgd_linear", {"learning_rate": True},
         "learning_rate must be positive and finite, got True"),
    ])
    def test_number_fields_are_not_converted(self, capsys, tmp_path, kind, fields, message):
        # A string or a bool is not a number: the field's rule sees the value
        # as written and names it, as {"iterations": true} always did.
        cfg = {"experiment": kind, "n": 300, "repeats": 1, "iterations": 5, "t_boot": 10,
               "schemes": [{"scheme": "wor", "n": 300, "m": 30}], **fields}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code, out, err = run_cli(capsys, "experiment", "--config", str(path))
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("kind", ["bootstrap", "dpsgd_linear"])
    @pytest.mark.parametrize("repeats", [0, -1])
    def test_repeats_below_one_exits_2(self, capsys, tmp_path, kind, repeats):
        cfg = {"experiment": kind, "n": 300, "repeats": repeats,
               "schemes": [{"scheme": "wor", "n": 300, "m": 30}]}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code, out, err = run_cli(capsys, "experiment", "--config", str(path))
        assert (code, out) == (2, "")
        assert "repeats" in err

    def test_bootstrap_config_runs(self, capsys, tmp_path):
        cfg = {
            "experiment": "bootstrap",
            "n": 300,
            "t_boot": 50,
            "eps_prime": 0.1,
            "repeats": 2,
            "seed": 3,
            "schemes": [{"scheme": "wor", "n": 300, "m": 30}],
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code, out, _ = run_cli(capsys, "experiment", "--config", str(path))
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["repeat", "scheme", "sigma_mean", "sigma_var", "pp_mean", "pp_var"]
        assert len(rows) == 2

    def test_degenerate_bootstrap_exits_3(self, capsys, tmp_path):
        # Two Poisson(0.01) subsamples of ten records: neither holds the two
        # records a variance needs.
        cfg = {
            "experiment": "bootstrap", "n": 10, "t_boot": 2, "repeats": 1, "seed": 0,
            "schemes": [{"scheme": "poisson", "gamma": 0.01, "n": 10}],
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code, out, err = run_cli(capsys, "experiment", "--config", str(path))
        assert code == 3
        assert out == ""
        assert err == "numerical failure: all bootstrap subsamples were degenerate\n"

    def test_dpsgd_config_runs(self, capsys, tmp_path):
        cfg = {
            "experiment": "dpsgd_linear",
            "n": 400,
            "iterations": 30,
            "eps_prime": 0.01,
            "repeats": 2,
            "seed": 4,
            "n_test": 200,
            "schemes": [{"scheme": "mustww", "n": 400, "b": 80, "m": 40}],
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code, out, _ = run_cli(capsys, "experiment", "--config", str(path))
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["repeat", "scheme", "sigma", "final_loss", "rmse"]
        assert all(float(r[4]) < 5.0 for r in rows)


class TestDeterminism:
    def test_byte_identical_output(self, capsys):
        argv = [
            "sample-stats", "--scheme", "mustww", "--n", "100", "--b", "20",
            "--m", "10", "--trials", "5000", "--seed", "9",
        ]
        # WOR and MUSTow with n on both sides of the sampler's keys/choice switch.
        argvs = [argv] + [
            ["sample-stats", "--scheme", tag, "--n", str(n), "--b", "20",
             "--m", "10", "--trials", "2000", "--seed", "9"]
            for tag in ("wor", "mustow") for n in (_KEYS_MAX_N // 4, _KEYS_MAX_N + 1)
        ]
        for args in argvs:
            _, out_a, _ = run_cli(capsys, *args)
            _, out_b, _ = run_cli(capsys, *args)
            assert out_a == out_b

    def test_twelve_significant_digits(self, capsys):
        _, out, _ = run_cli(
            capsys, "profile", "--family", "gaussian", "--theta", "1",
            "--eps", "0.123456789",
        )
        _, rows = parse_csv(out)
        assert rows[0][0] == "0.123456789"
        assert len(rows[0][1].replace(".", "").lstrip("0")) >= 11
