"""`subamp account` output pinned byte for byte: stdout, stderr and exit code.

The expected bytes live in golden/account.json. They cover all six schemes
at r = 2^14 with k up to 1000, an epsilon beyond the grid (exit 3 with one
stderr line per k) and the spike config whose upper spectrum overflows at
k = 1000 (exit 3 with the NonFiniteError message and diagnostics).

The file was written with numpy 2.4.6 and scipy 1.17.1 on x86-64. Values
near the FFT round-off floor (deltas below about 1e-14) depend in their low
digits on the platform's pow, exp and FFT kernels.

Regenerate only for an intended output change, and say so in CHANGES.md:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from subamp.cli import main

GOLDEN = Path(__file__).parent / "golden" / "account.json"

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
    # The spike config: the upper spectrum^k overflows on 74981 of the 131072
    # frequencies.
    ["--scheme", "poisson", "--gamma", "0.00322901", "--n", "30969", "--sigma", "144.4",
     "--k-list", "1000", "--eps-list", "2", "--L", "6", "--r", "131072"],
]


def _run(args: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["account", *args])
    return {"argv": args, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


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


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps([_run(args) for args in CASES], indent=1) + "\n")
