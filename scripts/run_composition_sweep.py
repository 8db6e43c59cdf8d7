"""k-fold composition sweep of a subsampled Gaussian mechanism.

Defaults reproduce the two-stage WOR-then-WR example: n=1e4, m=200, b=118,
sigma=4, L=10, eps=1, k in {200, 400, 600, 800, 1000}. To cross-check
k = 1 against the quadrature route, pass --verify with a k list that
holds 1, such as --k-list 1,200,400,600,800,1000; --verify without k = 1
exits 2.
"""

import sys

from subamp.cli import main as cli_main


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    defaults = [
        "account",
        "--scheme", "mustow",
        "--n", "10000", "--b", "118", "--m", "200",
        "--sigma", "4",
        "--k-list", "200,400,600,800,1000",
        "--eps-list", "1",
        "--L", "10",
        "--r", "300000",
    ]
    return cli_main(defaults + argv)


if __name__ == "__main__":
    sys.exit(main())
