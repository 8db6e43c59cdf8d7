"""Command-line surface: flags, schemas, exit codes, determinism."""

import json

import numpy as np
import pytest

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

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "profile", "--family", "gaussian", "--theta", "1",
            "--eps", "1", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert check_printed(payload[0]["delta"], "0.127")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_output_file_matches_stdout(self, capsys, tmp_path, fmt):
        flags = ["profile", "--family", "gaussian", "--theta", "1",
                 "--eps-grid", "0.5:2.5:3", "--format", fmt]
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
        code, _, err = run_cli(
            capsys, "experiment", "--config", str(tmp_path / "nope.json")
        )
        assert code == 2
        assert "config" in err

    @pytest.mark.parametrize("config", [
        {"experiment": "bootstrap", "schemes": [{"scheme": "wor", "n": 300, "m": 30}]},
        {"experiment": "dpsgd_linear", "n": 400},
        {"experiment": "bootstrap", "n": 300, "schemes": [5]},
        {"experiment": "bootstrap", "n": 300, "bounds": 4,
         "schemes": [{"scheme": "wor", "n": 300, "m": 30}]},
    ])
    def test_missing_or_malformed_field_exits_2(self, capsys, tmp_path, config):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        code, _, err = run_cli(capsys, "experiment", "--config", str(path))
        assert code == 2
        assert "config" in err

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
