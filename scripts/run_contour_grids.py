"""Contour grids of eta and delta'-delta over (b, m) for the 2-stage schemes.

Defaults: n=1000, b in [150, 200], m in [100, 150] (51x51 per scheme),
base eps = 1 with both mechanisms at theta = 1.
"""

import argparse
import sys

from subamp.cli import main as cli_main


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, allow_abbrev=False)
    parser.add_argument("--output-dir", default="contours")
    # Every other flag goes to each `subamp contour` run, after the defaults.
    args, passthrough = parser.parse_known_args(argv)

    code = 0
    for family in ("laplace", "gaussian"):
        run = [
            "contour",
            "--schemes", "mustow,mustww",
            "--n", "1000",
            "--b-range", "150:200",
            "--m-range", "100:150",
            "--family", family,
            "--theta", "1",
            "--eps", "1",
            "--output-dir", f"{args.output_dir}/{family}",
        ] + passthrough
        code = max(code, cli_main(run))
    return code


if __name__ == "__main__":
    sys.exit(main())
