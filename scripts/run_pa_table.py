"""Emit the amplified (eps', delta') table for all schemes and mechanisms.

Default configuration: n=1000, m=400, b=500, theta in {0.25, 1}, both
families, base eps in {0.05, 0.5, 1, 2, 3, 4.5}. One CSV to stdout or
--output.
"""

import argparse
import sys

from subamp.amplification import amplify_delta, amplify_epsilon, eta
from subamp.cli import _emit
from subamp.mechanisms import MechanismSpec, profile
from subamp.schemes import MUSTow, MUSTww, WOR, WR


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=1000)
    parser.add_argument("--m", type=int, default=400)
    parser.add_argument("--b", type=int, default=500)
    parser.add_argument("--eps", default="0.05,0.5,1,2,3,4.5")
    parser.add_argument("--thetas", default="0.25,1")
    parser.add_argument("--output", default=None)
    args = parser.parse_args(argv)

    schemes = {
        "wor": WOR(args.n, args.m),
        "wr": WR(args.n, args.m),
        "mustow": MUSTow(args.n, args.b, args.m),
        "mustww": MUSTww(args.n, args.b, args.m),
    }
    eps_values = [float(v) for v in args.eps.split(",")]
    thetas = [float(v) for v in args.thetas.split(",")]

    rows = []
    for family in ("laplace", "gaussian"):
        for theta in thetas:
            mech = MechanismSpec(family, theta)
            for eps in eps_values:
                delta = profile(mech, eps)
                rows.append([family, theta, "base", eps, delta, eps, delta])
                for tag, scheme in schemes.items():
                    ep = amplify_epsilon(eta(scheme), eps)
                    dp = amplify_delta(scheme, mech, eps)
                    rows.append([family, theta, tag, eps, delta, ep, dp])
    header = ["family", "theta", "scheme", "epsilon", "delta", "eps_prime", "delta_prime"]
    _emit(header, rows, args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
