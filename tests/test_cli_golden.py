"""CLI output pinned byte for byte: stdout, stderr and exit code.

golden/account.json holds `subamp account` on all six schemes at r = 2^14
with k up to 1000, an epsilon beyond the grid (exit 3 with one stderr line
per k) and the spike config at k = 1000, where one grid cell holds half
the loss mass. The wor and wr cases exit 3 too: at k = 1000 their
delta_upper lies below the delta_lower of k = 200 at every epsilon, so
those cells are errors.

golden/streams.json pins the random streams:
- `subamp sample-stats` on all six schemes, with populations on both sides
  of the subset sampler's keys/choice switch (n = 1024);
- `sampling.draw` on the same schemes over three seeds;
- one small `subamp experiment` config each for bootstrap and dpsgd_linear.

golden/tables.json pins the amplification tables:
- `subamp amplify` on all six schemes, both families, two thetas and two
  epsilons, a row on the PA boundary (eta = 1) and MUSTww at theta = eps = 1;
- the CSV files of a small `aligned` grid and of a small `contour` grid
  with and without a mechanism (file contents; the printed paths vary);
- the stdout of scripts/run_pa_table.py at its defaults and of
  scripts/run_unique_sample_stats.py at 100 trials.

The file was written with numpy 2.4.6 and scipy 1.17.1 on x86-64. Values
near the FFT round-off floor (deltas below about 1e-14) depend in their low
digits on the platform's pow, exp and FFT kernels.

Regenerate only for an intended output change, and say so in CHANGES.md:

    PYTHONPATH=src python tests/test_cli_golden.py

Before that, list what would move; this writes nothing:

    PYTHONPATH=src python tests/test_cli_golden.py --diff

It prints each account value that would move (case, k, epsilon, column,
old, new, absolute and relative move), then, tab-separated, each line of
tables.json and each value of streams.json that would move (file, case,
field, old, new). A field names a line as `stdout:3` and a list item as
`elements[0][4]`.
"""

import argparse
import contextlib
import importlib.util
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from subamp.cli import main
from subamp.sampling import draw
from subamp.schemes import scheme_from_dict

GOLDEN = Path(__file__).parent / "golden" / "account.json"
STREAMS = Path(__file__).parent / "golden" / "streams.json"
TABLES = Path(__file__).parent / "golden" / "tables.json"
SCRIPTS = Path(__file__).parent.parent / "scripts"

_GRID = ["--k-list", "1,10,200,1000", "--r", "16384"]
CASES = [
    ["--scheme", "poisson", "--gamma", "0.02", "--n", "100", "--sigma", "2",
     "--L", "10", "--eps-list", "0.5,1,2,12", *_GRID],
    ["--scheme", "wor", "--n", "1000", "--m", "200", "--sigma", "2",
     "--L", "8", "--eps-list", "0.5,1,2", *_GRID],
    ["--scheme", "wr", "--n", "1000", "--m", "200", "--sigma", "2",
     "--L", "8", "--eps-list", "0.5,1,2", *_GRID],
    ["--scheme", "mustwo", "--n", "1000", "--b", "100", "--m", "50", "--sigma", "2",
     "--L", "8", "--eps-list", "0.5,1,2", *_GRID],
    ["--scheme", "mustow", "--n", "10000", "--b", "118", "--m", "200", "--sigma", "4",
     "--L", "10", "--eps-list", "0.5,1,2", *_GRID],
    ["--scheme", "mustww", "--n", "1000", "--b", "100", "--m", "50", "--sigma", "2",
     "--L", "8", "--eps-list", "0.5,1,2", *_GRID],
    # The spike config: one of the 131072 cells holds half the loss mass.
    ["--scheme", "poisson", "--gamma", "0.00322901", "--n", "30969", "--sigma", "144.4",
     "--k-list", "1000", "--eps-list", "2", "--L", "6", "--r", "131072"],
]


# Scheme specs with n (b for MUSTwo's stage II) on both sides of 1024.
SCHEMES = [
    {"scheme": "poisson", "gamma": 0.05, "n": 300},
    {"scheme": "poisson", "gamma": 0.01, "n": 3000},
    {"scheme": "wor", "n": 300, "m": 30},
    {"scheme": "wor", "n": 3000, "m": 40},
    {"scheme": "wr", "n": 300, "m": 30},
    {"scheme": "wr", "n": 3000, "m": 40},
    {"scheme": "mustwo", "n": 300, "b": 60, "m": 30},
    {"scheme": "mustwo", "n": 3000, "b": 1500, "m": 40},
    {"scheme": "mustow", "n": 300, "b": 50, "m": 30},
    {"scheme": "mustow", "n": 3000, "b": 100, "m": 40},
    {"scheme": "mustww", "n": 300, "b": 50, "m": 30},
    {"scheme": "mustww", "n": 3000, "b": 100, "m": 40},
]
SAMPLE_STATS = [
    [arg for key, value in spec.items() for arg in (f"--{key}", str(value))]
    + ["--trials", "3000", "--seed", "7"]
    for spec in SCHEMES
]
EXPERIMENTS = [
    {"experiment": "bootstrap", "n": 120, "t_boot": 100, "repeats": 2, "seed": 3,
     "schemes": [{"scheme": "poisson", "gamma": 0.1, "n": 120},
                 {"scheme": "wor", "n": 120, "m": 12},
                 {"scheme": "mustow", "n": 120, "b": 30, "m": 12},
                 {"scheme": "mustww", "n": 120, "b": 30, "m": 12}]},
    {"experiment": "dpsgd_linear", "n": 200, "iterations": 30, "repeats": 2, "seed": 3,
     "schemes": [{"scheme": "poisson", "gamma": 0.1, "n": 200},
                 {"scheme": "wr", "n": 200, "m": 20},
                 {"scheme": "mustwo", "n": 200, "b": 40, "m": 20}]},
]

_SCHEME_FLAGS = ["--n", "1000", "--m", "400", "--b", "500"]
AMPLIFY = [
    ["--scheme", tag, *_SCHEME_FLAGS, "--family", family, "--theta", theta, "--eps", eps]
    for tag in ("poisson", "wor", "wr", "mustwo", "mustow", "mustww")
    for family in ("laplace", "gaussian")
    for theta in ("0.25", "4")
    for eps in ("0.05", "3")
] + [
    # eta = 1: eps'/eps is exactly 1, a strong point on the boundary.
    ["--scheme", "wor", "--n", "10", "--m", "10", "--family", "laplace",
     "--theta", "1", "--eps", "1"],
    ["--scheme", "mustww", *_SCHEME_FLAGS, "--family", "gaussian", "--theta", "1",
     "--eps", "1"],
]
_MECH = ["--family", "laplace", "--theta", "1", "--eps", "1"]
GRIDS = [
    ["aligned", "--schemes", "poisson,wor,wr,mustwo,mustow,mustww",
     "--families", "laplace,gaussian", "--thetas", "0.5,2", "--n", "100", "--m", "20",
     "--b", "40", "--eps-grid", "0.5:3:3"],
    ["contour", "--schemes", "mustow,mustww,mustwo", "--n", "100",
     "--b-range", "20:22", "--m-range", "10:12"],
    ["contour", "--schemes", "mustow,mustww,mustwo", "--n", "100",
     "--b-range", "20:22", "--m-range", "10:12", *_MECH],
]
SCRIPT_RUNS = [["run_pa_table.py"], ["run_unique_sample_stats.py", "--trials", "100"]]


def load_script(name: str):
    """scripts/<name> as a module, loaded from its path."""
    spec = importlib.util.spec_from_file_location(Path(name).stem, SCRIPTS / name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(args: list[str], command: str = "account") -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, *args])
    return {"argv": args, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _experiment(cfg: dict) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(cfg))
        result = _run(["--config", str(path)], "experiment")
    return {**result, "argv": cfg}


def _grid_files(argv: list[str]) -> dict:
    """Exit code, stderr and CSV contents of one `aligned` or `contour` run."""
    with tempfile.TemporaryDirectory() as tmp:
        result = _run([*argv[1:], "--output-dir", tmp], argv[0])
        files = {path.name: path.read_text() for path in sorted(Path(tmp).glob("*.csv"))}
    return {"argv": argv, "code": result["code"], "stderr": result["stderr"], "files": files}


def _script(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = load_script(argv[0]).main(argv[1:])
    return {"argv": argv, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _tables() -> dict:
    return {
        "amplify": [_run(args, "amplify") for args in AMPLIFY],
        "grids": [_grid_files(argv) for argv in GRIDS],
        "scripts": [_script(argv) for argv in SCRIPT_RUNS],
    }


def _draws(spec: dict) -> dict:
    multisets = [draw(scheme_from_dict(spec), seed) for seed in (0, 1, 2)]
    return {
        "spec": spec,
        "elements": [s.elements.tolist() for s in multisets],
        "counts": [s.counts.tolist() for s in multisets],
        "dtypes": sorted({str(a.dtype) for s in multisets for a in (s.elements, s.counts)}),
    }


def _streams() -> dict:
    return {
        "sample_stats": [_run(args, "sample-stats") for args in SAMPLE_STATS],
        "draw": [_draws(spec) for spec in SCHEMES],
        "experiment": [_experiment(cfg) for cfg in EXPERIMENTS],
    }


def _golden() -> dict:
    return {" ".join(case["argv"]): case for case in json.loads(GOLDEN.read_text())}


@pytest.mark.parametrize("args", CASES, ids=lambda args: f"{args[1]}-r{args[-1]}")
def test_account_output_is_byte_identical(args):
    expected = _golden()[" ".join(args)]
    got = _run(args)
    assert got["code"] == expected["code"]
    assert got["stdout"] == expected["stdout"]
    assert got["stderr"] == expected["stderr"]


def test_every_case_has_golden_output():
    assert sorted(_golden()) == sorted(" ".join(args) for args in CASES)


def test_diff_lists_moved_values_and_writes_nothing(monkeypatch, capsys):
    # One WOR case, with one golden delta edited: only that value is listed.
    args = CASES[1]
    case = _golden()[" ".join(args)]
    printed = case["stdout"].splitlines()[2].split(",")[7]
    edited = {**case, "stdout": case["stdout"].replace(printed, "0.5", 1)}
    monkeypatch.setattr(sys.modules[__name__], "CASES", [args])
    monkeypatch.setattr(sys.modules[__name__], "_golden", lambda: {" ".join(args): edited})
    before = GOLDEN.read_bytes(), STREAMS.read_bytes()
    diff()
    out, err = capsys.readouterr()
    assert out.splitlines() == [
        "case,k,epsilon,column,old,new,abs_move,rel_move",
        f"wor-r16384,1,0.5,delta_lower,0.5,{printed},"
        f"{abs(float(printed) - 0.5):.2e},{abs(float(printed) - 0.5) / 0.5:.2e}",
    ]
    assert err == "# 1 of 27 golden deltas moved\n"
    assert (GOLDEN.read_bytes(), STREAMS.read_bytes()) == before


def test_diff_lists_moved_table_lines_and_stream_values(monkeypatch, capsys, tmp_path):
    # One amplify case with its table row edited and one draw with one
    # element edited: only those two are listed, and no file is written.
    amplify = _table_golden("amplify")[json.dumps(AMPLIFY[0])]
    row = amplify["stdout"].splitlines()[2]
    amplify["stdout"] = amplify["stdout"].replace(row, "planted")
    drawn = _stream_golden("draw", "spec")[json.dumps(SCHEMES[0])]
    element, drawn["elements"][0][0] = drawn["elements"][0][0], -1
    planted = {
        "TABLES": (tmp_path / "tables.json", {"amplify": [amplify]}),
        "STREAMS": (tmp_path / "streams.json", {"draw": [drawn]}),
    }
    files = [GOLDEN, STREAMS, TABLES]
    module = sys.modules[__name__]
    for name, (path, golden) in planted.items():
        path.write_text(json.dumps(golden))
        files.append(path)
        monkeypatch.setattr(module, name, path)
    for name, cases in (("AMPLIFY", AMPLIFY[:1]), ("SCHEMES", SCHEMES[:1]), ("GRIDS", []),
                        ("SCRIPT_RUNS", []), ("SAMPLE_STATS", []), ("EXPERIMENTS", [])):
        monkeypatch.setattr(module, name, cases)
    before = [path.read_bytes() for path in files]
    diff_tables_and_streams()
    out, err = capsys.readouterr()
    assert out.splitlines() == [
        "file\tcase\tfield\told\tnew",
        f"tables.json\tamplify {json.dumps(AMPLIFY[0])}\tstdout:3\tplanted\t{row}",
        f"streams.json\tdraw {json.dumps(SCHEMES[0])}\telements[0][0]\t-1\t{element}",
    ]
    assert err.startswith("# 2 of ")
    assert [path.read_bytes() for path in files] == before


def _stream_golden(kind: str, key: str) -> dict:
    return {json.dumps(case[key]): case for case in json.loads(STREAMS.read_text())[kind]}


@pytest.mark.parametrize("args", SAMPLE_STATS, ids=lambda args: "-".join(args[1:6:2]))
def test_sample_stats_output_is_byte_identical(args):
    assert _run(args, "sample-stats") == _stream_golden("sample_stats", "argv")[json.dumps(args)]


@pytest.mark.parametrize("spec", SCHEMES, ids=lambda spec: f"{spec['scheme']}-n{spec['n']}")
def test_draw_output_is_unchanged(spec):
    assert _draws(spec) == _stream_golden("draw", "spec")[json.dumps(spec)]


@pytest.mark.parametrize("cfg", EXPERIMENTS, ids=lambda cfg: cfg["experiment"])
def test_experiment_output_is_byte_identical(cfg):
    assert _experiment(cfg) == _stream_golden("experiment", "argv")[json.dumps(cfg)]


def test_every_stream_case_has_golden_output():
    for kind, key, cases in (
        ("sample_stats", "argv", SAMPLE_STATS), ("draw", "spec", SCHEMES),
        ("experiment", "argv", EXPERIMENTS),
    ):
        assert sorted(_stream_golden(kind, key)) == sorted(map(json.dumps, cases))


def _table_golden(kind: str) -> dict:
    return {json.dumps(case["argv"]): case for case in json.loads(TABLES.read_text())[kind]}


def _amplify_id(args: list[str]) -> str:
    flags = ("--scheme", "--family", "--theta", "--eps")
    return "-".join(value for flag, value in zip(args, args[1:]) if flag in flags)


@pytest.mark.parametrize("args", AMPLIFY, ids=_amplify_id)
def test_amplify_output_is_byte_identical(args):
    assert _run(args, "amplify") == _table_golden("amplify")[json.dumps(args)]


@pytest.mark.parametrize("argv", GRIDS, ids=lambda argv: f"{argv[0]}-{len(argv)}")
def test_grid_files_are_byte_identical(argv):
    assert _grid_files(argv) == _table_golden("grids")[json.dumps(argv)]


@pytest.mark.parametrize("argv", SCRIPT_RUNS, ids=lambda argv: argv[0])
def test_script_output_is_byte_identical(argv):
    assert _script(argv) == _table_golden("scripts")[json.dumps(argv)]


def test_every_table_case_has_golden_output():
    for kind, cases in (("amplify", AMPLIFY), ("grids", GRIDS), ("scripts", SCRIPT_RUNS)):
        assert sorted(_table_golden(kind)) == sorted(map(json.dumps, cases))


def _values(result: dict) -> dict:
    """{(k, epsilon, column): printed value} of one `account` run."""
    lines = result["stdout"].splitlines()[1:]  # past the schema line
    if not lines:
        return {}
    header = lines[0].split(",")
    return {
        (row["k"], row["epsilon"], column): row[column]
        for row in (dict(zip(header, line.split(","))) for line in lines[1:])
        for column in header if column.startswith("delta_")
    }


def _moves(old: str, new: str) -> tuple[str, str]:
    """Absolute and relative move between two printed values, blank if not numbers."""
    try:
        a, b = float(old), float(new)
    except ValueError:
        return "", ""
    return f"{abs(b - a):.2e}", f"{abs(b - a) / abs(a):.2e}" if a else ""


def diff() -> None:
    """Print each golden account delta that the current code prints differently."""
    golden = _golden()
    print("case,k,epsilon,column,old,new,abs_move,rel_move")
    moved = 0
    for args in CASES:
        old, new = golden[" ".join(args)], _run(args)
        case = f"{args[1]}-r{args[-1]}"
        rows = [
            ("", "", field, repr(old[field]), repr(new[field]))
            for field in ("code", "stderr") if old[field] != new[field]
        ]
        old_values, new_values = _values(old), _values(new)
        for key in {**old_values, **new_values}:  # golden order, then new rows
            before, after = old_values.get(key, "missing"), new_values.get(key, "missing")
            if before != after:
                rows.append((*key, before, after))
        for row in rows:
            print(",".join((case, *row, *_moves(*row[3:]))))
        moved += len(rows)
    total = sum(len(_values(case)) for case in golden.values())
    print(f"# {moved} of {total} golden deltas moved", file=sys.stderr)


def _leaves(value, path: str = ""):
    """(field, value) of each line of text and each scalar in a golden case."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _leaves(item, f"{path}.{key}" if path else key)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _leaves(item, f"{path}[{i}]")
    elif isinstance(value, str) and "\n" in value:
        for i, line in enumerate(value.splitlines(), 1):
            yield f"{path}:{i}", line
    else:
        yield path, value


def diff_tables_and_streams() -> None:
    """Print each line or value of tables.json and streams.json that moves."""
    print("file\tcase\tfield\told\tnew")
    moved = total = 0
    for path, fresh in ((TABLES, _tables()), (STREAMS, _streams())):
        golden = json.loads(path.read_text())
        for kind, cases in fresh.items():
            key = "spec" if kind == "draw" else "argv"
            old_cases = {json.dumps(case[key]): case for case in golden.get(kind, [])}
            for case in cases:
                name = json.dumps(case[key])
                old = dict(_leaves(old_cases.get(name, {})))
                new = dict(_leaves(case))
                total += len(old)
                for field in {**old, **new}:  # golden order, then new fields
                    before, after = old.get(field, "missing"), new.get(field, "missing")
                    if before != after:
                        row = (path.name, f"{kind} {name}", field, before, after)
                        print("\t".join(map(str, row)))
                        moved += 1
    print(f"# {moved} of {total} golden table and stream values moved", file=sys.stderr)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Regenerate or diff the golden CLI output.")
    parser.add_argument(
        "--diff", action="store_true",
        help="list the account, table and stream values that would move, and write nothing",
    )
    if parser.parse_args().diff:
        diff()
        diff_tables_and_streams()
    else:
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_text(json.dumps([_run(args) for args in CASES], indent=1) + "\n")
        STREAMS.write_text(json.dumps(_streams(), indent=1) + "\n")
        TABLES.write_text(json.dumps(_tables(), indent=1) + "\n")
