"""Desk-scale utility experiments: bootstrap inference and DP-SGD regression.

Experiment 1 (bootstrap): n=300 Gaussian data, m=30, 500 bootstrap
subsamples, eps'=0.1, delta=1/n; releases privacy-preserving mean and
variance per scheme (two-stage schemes swept over b).

Experiment 2 (regression): n=1000 linear-model data, b=200, m=100, C=3,
lr=0.04, T=200 iterations of DP-SGD at eps'=0.01, delta=1/n; reports the
noise scale and held-out RMSE per scheme.

Repeats default to 20; pass --repeats to change. At 20 repeats the script
takes about 4.5 s on a 2-vCPU x86-64 host, and about 1 s at --repeats 1.
Each harness run draws all its subsamples as count rows from one generator
seeded from --seed.
"""

import argparse
import json
import sys
import tempfile
from pathlib import Path

from subamp.cli import main as cli_main


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=20)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--output-dir", default="utility_results")
    args = parser.parse_args(argv)

    outdir = Path(args.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)

    bootstrap_cfg = {
        "experiment": "bootstrap",
        "n": 300,
        "t_boot": 500,
        "bounds": [-4.0, 4.0],
        "eps_prime": 0.1,
        "repeats": args.repeats,
        "seed": args.seed,
        "schemes": [
            {"scheme": "poisson", "gamma": 0.1, "n": 300},
            {"scheme": "wor", "n": 300, "m": 30},
            {"scheme": "wr", "n": 300, "m": 30},
        ]
        + [
            {"scheme": tag, "n": 300, "b": b, "m": 30}
            for tag in ("mustow", "mustww")
            for b in (10, 20, 30, 50, 100)
        ],
    }
    dpsgd_cfg = {
        "experiment": "dpsgd_linear",
        "n": 1000,
        "clip_c": 3.0,
        "learning_rate": 0.04,
        "iterations": 200,
        "eps_prime": 0.01,
        "repeats": args.repeats,
        "seed": args.seed,
        "schemes": [
            {"scheme": "poisson", "gamma": 0.1, "n": 1000},
            {"scheme": "wor", "n": 1000, "m": 100},
            {"scheme": "wr", "n": 1000, "m": 100},
            {"scheme": "mustow", "n": 1000, "b": 200, "m": 100},
            {"scheme": "mustww", "n": 1000, "b": 200, "m": 100},
        ],
    }

    code = 0
    for name, cfg in (("bootstrap", bootstrap_cfg), ("dpsgd_linear", dpsgd_cfg)):
        with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
            json.dump(cfg, fh)
            cfg_path = fh.name
        out_path = outdir / f"{name}.csv"
        try:
            code = max(
                code,
                cli_main(["experiment", "--config", cfg_path, "--output", str(out_path)]),
            )
        finally:
            Path(cfg_path).unlink()
        print(out_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
