"""Command-line surface.

Subcommands: profile, amplify, aligned, contour, account, sample-stats,
experiment. All tabular output is CSV with a leading "# schema=1" comment
and 12-significant-digit numbers; runs are byte-identical given identical
flags and seed. Exit codes: 0 success, 2 validation, file-system or
out-of-memory error, 3 numerical failure (diagnostics on stderr).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np

from . import accountant as acct
from . import harness
from .amplification import _eps_grid, aligned_profile, amplify_delta, amplify_epsilon, eta
from .mechanisms import Family, MechanismSpec, profile
from .numerics import _NumericalFailure, _epsilon, _epsilons, _integer, _positive
from .pld import PrivacyLossModel, discretize
from .sampling import mc_stats
from .schemes import _SCHEME_TAGS, Poisson, SamplingScheme, _scheme_class, scheme_from_dict

SCHEMA_LINE = "# schema=1"
_FAMILIES = tuple(family.value for family in Family)
# Every field of the scheme classes once, in the flag and column order n, b, m, gamma.
_SCHEME_FIELDS = {f.name: f for cls in reversed(_SCHEME_TAGS.values()) for f in fields(cls)}


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.12g}"
    return str(value)


def _write_table(header: list[str], rows: list[list], stream) -> None:
    stream.write(SCHEMA_LINE + "\n")
    stream.write(",".join(header) + "\n")
    for row in rows:
        stream.write(",".join(_fmt(v) for v in row) + "\n")


def _emit(header, rows, args) -> None:
    """Write one table to --output, or stdout."""
    with open(args.output, "w") if args.output else contextlib.nullcontext(sys.stdout) as out:
        _write_table(header, rows, out)


def _write_files(output_dir: str, header: list[str], tables: dict[str, list]) -> None:
    """Write each table of `tables` to output_dir/<name> and print its path."""
    outdir = Path(output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    for name, rows in tables.items():
        path = outdir / name
        with open(path, "w") as fh:
            _write_table(header, rows, fh)
        sys.stdout.write(f"{path}\n")


def _comma_list(spec: str) -> list[str]:
    """The entries of a comma list, each once, in order of first appearance."""
    return list(dict.fromkeys(v.strip() for v in spec.split(",") if v.strip()))


def _number_list(spec: str, flag: str, kind: type, rule) -> list:
    """The numbers of a comma list, each once, in order of first appearance,
    each checked by rule(flag, number).

    Repeats are dropped after conversion, so 1 and 1.0 are one float. An
    empty list or entry is an error that names the flag.
    """
    try:
        numbers = dict.fromkeys(kind(v) for v in spec.split(","))
    except ValueError:
        what = "integers" if kind is int else "numbers"
        raise ValueError(f"{flag} expects a comma list of {what}, got {spec!r}") from None
    return [rule(flag, v) for v in numbers]


def _parse_grid(spec: str, flag: str, rule) -> np.ndarray:
    """The grid lo:hi:count, checked by rule(flag, grid)."""
    try:
        lo, hi, count = spec.split(":")
        grid = np.linspace(float(lo), float(hi), int(count))
    except Exception:
        raise ValueError(f"{flag} expects lo:hi:count, got {spec!r}") from None
    if grid.size == 0:
        raise ValueError(f"{flag} produced an empty grid")
    try:
        return rule(flag, grid)
    except ValueError as exc:  # quote the grid as typed, not as parsed
        message = str(exc).rpartition(", got ")[0]
        raise ValueError(f"{message}, got {spec!r}") from None


def _parse_int_range(spec: str, flag: str) -> range:
    try:
        lo, hi = (int(v) for v in spec.split(":"))
    except Exception:
        raise ValueError(f"{flag} expects lo:hi (inclusive), got {spec!r}") from None
    if hi < lo:
        raise ValueError(f"{flag} range is empty: {spec!r}")
    return range(lo, hi + 1)


def _scheme(tag: str, args) -> SamplingScheme:
    """Scheme `tag`, each class field from its flag; Poisson's gamma defaults to m/n."""
    cls = _scheme_class(tag)
    spec = {field.name: getattr(args, field.name) for field in fields(cls)}
    if cls is Poisson and args.gamma is None and args.m is not None and args.n:
        spec["gamma"] = args.m / args.n
    for field in fields(cls):
        if spec[field.name] is None and field.default is MISSING:
            raise ValueError(f"--{field.name} is required for scheme {tag}")
    return cls(**spec)


def _mech_from_args(args) -> MechanismSpec:
    if args.theta is None:
        raise ValueError("--theta is required when --family is given")
    try:
        return MechanismSpec(Family(args.family), args.theta)
    except ValueError as exc:
        raise ValueError(f"--family/--theta: {exc}") from None


def _scheme_columns(scheme: SamplingScheme) -> dict:
    values = {name: getattr(scheme, name, None) for name in _SCHEME_FIELDS}
    blanked = {name: "" if value is None else value for name, value in values.items()}
    return {"scheme": scheme.label, **blanked, "neighboring": scheme.neighboring}


# -- subcommands -------------------------------------------------------------


def cmd_profile(args) -> int:
    mech = _mech_from_args(args)
    if args.eps is not None:
        grid = [_epsilon("--eps", args.eps)]
    else:
        grid = _parse_grid(args.eps_grid, "--eps-grid", _epsilons)
    rows = [[float(e), profile(mech, float(e))] for e in grid]
    _emit(["epsilon", "delta"], rows, args)
    return 0


def cmd_amplify(args) -> int:
    scheme = _scheme(args.scheme, args)
    mech = _mech_from_args(args)
    pt = aligned_profile(scheme, mech, [_positive("--eps", args.eps)])[0]
    cols = _scheme_columns(scheme)
    header = [
        *cols.keys(), "family", "theta", "epsilon", "eta", "eps_prime",
        "delta", "delta_prime", "eps_ratio", "delta_gap", "pa_class", "on_boundary",
    ]
    row = [
        *cols.values(), mech.family.value, mech.theta, pt.epsilon, eta(scheme), pt.eps_prime,
        pt.delta, pt.delta_prime, pt.eps_ratio, pt.delta_gap, pt.pa_class.value,
        pt.on_boundary,
    ]
    _emit(header, [row], args)
    return 0


def cmd_aligned(args) -> int:
    grid = _parse_grid(args.eps_grid, "--eps-grid", _eps_grid)
    thetas = _number_list(args.thetas, "--thetas", float, _positive)
    schemes = {tag: _scheme(tag, args) for tag in _comma_list(args.schemes)}
    mechs = {
        f: [MechanismSpec(Family(f), theta) for theta in thetas]
        for f in _comma_list(args.families)
    }
    header = [
        "theta", "epsilon", "eps_prime", "delta", "delta_prime",
        "eps_ratio", "delta_gap", "pa_class", "on_boundary", "neighboring",
    ]
    tables = {
        f"aligned_{family}_{tag}.csv": [
            [theta, pt.epsilon, pt.eps_prime, pt.delta, pt.delta_prime, pt.eps_ratio,
             pt.delta_gap, pt.pa_class.value, pt.on_boundary, pt.neighboring]
            for theta, mech in zip(thetas, family_mechs)
            for pt in aligned_profile(scheme, mech, grid)
        ]
        for family, family_mechs in mechs.items()
        for tag, scheme in schemes.items()
    }
    _write_files(args.output_dir, header, tables)
    return 0


def cmd_contour(args) -> int:
    b_range = _parse_int_range(args.b_range, "--b-range")
    m_range = _parse_int_range(args.m_range, "--m-range")
    mech = None
    if args.family is not None:
        mech = _mech_from_args(args)
        if args.eps is None:
            raise ValueError("--eps is required when --family is given")
        _positive("--eps", args.eps)
    elif args.theta is not None:
        raise ValueError("--theta needs --family")
    eps = 1.0 if args.eps is None else _epsilon("--eps", args.eps)
    # Every cell's scheme is built before any amplification is computed.
    cells = {}
    for tag in _comma_list(args.schemes):
        cls = _scheme_class(tag)
        if len(cls.stages) != 2:
            raise ValueError(f"contour sweeps are over (b, m); scheme {tag!r} has no b")
        cells[tag] = [(b, m, cls(n=args.n, b=b, m=m)) for b in b_range for m in m_range]

    header = ["b", "m", "eta", "eps_prime"]
    if mech is not None:
        header += ["delta", "delta_prime", "delta_gap"]
        delta = profile(mech, eps)

    def row(b, m, scheme) -> list:
        eta_value = eta(scheme)
        out = [b, m, eta_value, amplify_epsilon(eta_value, eps)]
        if mech is not None:
            delta_prime = amplify_delta(scheme, mech, eps)
            out += [delta, delta_prime, delta_prime - delta]
        return out

    tables = {
        f"contour_{tag}.csv": [row(*cell) for cell in tag_cells]
        for tag, tag_cells in cells.items()
    }
    _write_files(args.output_dir, header, tables)
    return 0


def cmd_account(args) -> int:
    scheme = _scheme(args.scheme, args)
    k_list = _number_list(args.k_list, "--k-list", int, _integer)
    eps_list = _number_list(args.eps_list, "--eps-list", float, _epsilon)
    if args.verify and 1 not in k_list:
        raise ValueError("--verify needs k = 1 in --k-list")
    model = PrivacyLossModel(scheme, args.sigma)
    pld = discretize(model, args.L, args.r)
    cells = acct.compose_many(pld, k_list, eps_list)

    cols = _scheme_columns(scheme)
    header = [
        "scheme", "n", "b", "m", "sigma", "k", "epsilon",
        "delta_lower", "delta_approx", "delta_upper", "grid_r", "trunc_L",
    ]
    rows = [
        [cols["scheme"], cols["n"], cols["b"], cols["m"], args.sigma, cell.k, cell.epsilon,
         cell.result.delta_lower, cell.result.delta_approx, cell.result.delta_upper,
         cell.result.diagnostics.grid_r, cell.result.diagnostics.trunc_L]
        for cell in cells if cell.error is None
    ]
    failures = [cell for cell in cells if cell.error is not None]
    _emit(header, rows, args)
    for cell in failures:
        sys.stderr.write(f"error: k={cell.k} eps={cell.epsilon}: {cell.error}\n")

    if args.verify:
        for cell in cells:
            if cell.error is not None or cell.k != 1:
                continue
            lower, upper = cell.result.delta_lower, cell.result.delta_upper
            quad, err = acct._delta_direct(model, cell.epsilon)
            passed = lower - err <= quad <= upper + err
            if not passed:
                failures.append(cell)
            sys.stderr.write(
                f"verify k=1 eps={cell.epsilon:g}: bracket=[{lower:.9e}, {upper:.9e}] "
                f"quad={quad:.9e} err={err:.3e} {'PASS' if passed else 'FAIL'}\n"
            )
    return 3 if failures else 0


def cmd_sample_stats(args) -> int:
    scheme = _scheme(args.scheme, args)
    if scheme.n is None:  # Poisson needs its population size to draw
        raise ValueError(f"--n is required for scheme {args.scheme}")
    trials = _integer("--trials", args.trials)
    seed = _integer("--seed", args.seed, low=0)
    stats = mc_stats(scheme, trials, seed)
    cols = _scheme_columns(scheme)
    header = [
        "scheme", "n", "b", "m", "trials",
        "unique_min", "unique_mean", "unique_max", "eta_hat",
    ]
    row = [
        cols["scheme"], cols["n"], cols["b"], cols["m"], stats.trials,
        stats.unique_min, stats.unique_mean, stats.unique_max, stats.eta_hat,
    ]
    _emit(header, [row], args)
    return 0


def _bootstrap_row(cfg: dict, scheme: SamplingScheme, n: int, seed: int) -> list:
    config = harness.BootstrapConfig(
        scheme=scheme,
        t_boot=cfg.get("t_boot", 500),
        bounds=cfg.get("bounds", (-4.0, 4.0)),
        eps_prime=cfg.get("eps_prime", 0.1),
        delta_base=cfg.get("delta_base", 1.0 / n),
        repeats=cfg.get("repeats", 20),
        seed=seed,
    )
    data = harness.make_synthetic("gaussian_univariate", n, seed=seed)
    result = harness.run_bootstrap(config, data)
    return [result["sigma_mean"], result["sigma_var"], result["pp_mean"], result["pp_var"]]


def _dpsgd_row(cfg: dict, scheme: SamplingScheme, n: int, seed: int) -> list:
    design, response = harness.make_synthetic("linear_regression", n, seed=seed)
    test_x, test_y = harness.make_synthetic(
        "linear_regression", _integer("n_test", cfg.get("n_test", n)), seed=seed + 7
    )
    config = harness.SGDConfig(
        scheme=scheme,
        eps_prime_per_iter=_positive("eps_prime", cfg.get("eps_prime", 0.01)),
        delta_base=cfg.get("delta_base", 1.0 / n),
        clip_c=cfg.get("clip_c", 3.0),
        learning_rate=cfg.get("learning_rate", 0.04),
        iterations=cfg.get("iterations", 200),
        seed=seed,
    )
    result = harness.run_dpsgd_linear(config, design, response)
    pred = test_x @ result["beta_hat"]
    rmse = float(np.sqrt(np.mean((test_y - pred) ** 2)))
    return [result["sigma_used"], float(result["loss_trace"][-1]), rmse]


_EXPERIMENTS = {
    "bootstrap": (["sigma_mean", "sigma_var", "pp_mean", "pp_var"], _bootstrap_row),
    "dpsgd_linear": (["sigma", "final_loss", "rmse"], _dpsgd_row),
}


def cmd_experiment(args) -> int:
    try:
        cfg = json.loads(Path(args.config).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"--config is not valid JSON: {exc}") from None
    kind = cfg.get("experiment") if isinstance(cfg, dict) else None
    if not isinstance(kind, str) or kind not in _EXPERIMENTS:
        kinds = " or ".join(map(repr, _EXPERIMENTS))
        raise ValueError(f"config field 'experiment' must be {kinds}, got {kind!r}")
    columns, run = _EXPERIMENTS[kind]
    # Config fields are read as the runs go, unconverted: a missing one raises
    # KeyError there, a malformed one ValueError (its rule's) or TypeError.
    try:
        seed = _integer("config field 'seed'", cfg.get("seed", 0), low=0)
        n = _integer("config field 'n'", cfg["n"])
        repeats = _integer("config field 'repeats'", cfg.get("repeats", 20))
        schemes = list(map(scheme_from_dict, cfg["schemes"]))
        for i, scheme in enumerate(schemes):
            if scheme.n != n:  # the runs draw from n records
                raise ValueError(f"config field 'schemes'[{i}] must have n equal to "
                                 f"config field 'n' ({n}), got {scheme.n}")
        rows = [
            [rep, scheme.label, *run(cfg, scheme, n, seed + 1000 * rep)]
            for scheme in schemes
            for rep in range(repeats)
        ]
    except KeyError as exc:
        raise ValueError(f"config is missing field {exc}") from None
    except TypeError as exc:
        raise ValueError(f"config has a malformed field: {exc}") from None
    _emit(["repeat", "scheme", *columns], rows, args)
    return 0


# -- parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subamp",
        description="Privacy amplification and FFT loss accounting for subsampling schemes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output(p):
        p.add_argument("--output", default=None, help="output path (default stdout)")

    def add_scheme_fields(p, required=()):
        for name, field in _SCHEME_FIELDS.items():  # field.type is the annotation string
            kind = float if field.type == "float" else int
            p.add_argument(f"--{name}", type=kind, required=name in required)

    def add_scheme(p):
        p.add_argument("--scheme", required=True, choices=tuple(_SCHEME_TAGS))
        add_scheme_fields(p)

    p = sub.add_parser("profile", help="base-mechanism privacy profile")
    p.add_argument("--family", required=True, choices=_FAMILIES)
    p.add_argument("--theta", type=float, required=True)
    eps = p.add_mutually_exclusive_group(required=True)
    eps.add_argument("--eps", type=float)
    eps.add_argument("--eps-grid", dest="eps_grid")
    add_output(p)
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("amplify", help="amplified (eps', delta') for one scheme")
    add_scheme(p)
    p.add_argument("--family", required=True, choices=_FAMILIES)
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--eps", type=float, required=True)
    add_output(p)
    p.set_defaults(func=cmd_amplify)

    p = sub.add_parser("aligned", help="aligned-profile curves over an eps grid")
    p.add_argument("--schemes", required=True, help="comma list, e.g. wor,wr,mustow,mustww")
    p.add_argument("--families", required=True, help=f"comma list of {','.join(_FAMILIES)}")
    p.add_argument("--thetas", required=True, help="comma list of theta values")
    add_scheme_fields(p, required=("n",))
    p.add_argument("--eps-grid", dest="eps_grid", required=True)
    p.add_argument("--output-dir", dest="output_dir", required=True)
    p.set_defaults(func=cmd_aligned)

    p = sub.add_parser("contour", help="eta / delta-gap grids over (b, m)")
    p.add_argument("--schemes", required=True, help="comma list of mustow,mustww,mustwo")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--b-range", dest="b_range", required=True, help="lo:hi inclusive")
    p.add_argument("--m-range", dest="m_range", required=True, help="lo:hi inclusive")
    p.add_argument("--family", choices=_FAMILIES)
    p.add_argument("--theta", type=float)
    p.add_argument("--eps", type=float)
    p.add_argument("--output-dir", dest="output_dir", required=True)
    p.set_defaults(func=cmd_contour)

    p = sub.add_parser("account", help="k-fold composition via the Fourier accountant")
    add_scheme(p)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--k-list", dest="k_list", required=True, help="comma list of k")
    p.add_argument("--eps-list", dest="eps_list", required=True, help="comma list of eps")
    p.add_argument("--L", type=float, default=10.0)
    p.add_argument("--r", type=int, default=1 << 17)
    p.add_argument("--verify", action="store_true",
                   help="check that adaptive quadrature lies in each k=1 bracket")
    add_output(p)
    p.set_defaults(func=cmd_account)

    p = sub.add_parser("sample-stats", help="Monte-Carlo unique-sample statistics")
    add_scheme(p)
    p.add_argument("--trials", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    add_output(p)
    p.set_defaults(func=cmd_sample_stats)

    p = sub.add_parser("experiment", help="run a JSON-configured utility experiment")
    p.add_argument("--config", required=True)
    add_output(p)
    p.set_defaults(func=cmd_experiment)

    return parser


def _exit_code(func, args) -> int:
    """func(args), with a failure turned into one stderr line and exit code 2 or 3."""
    try:
        return func(args)
    except _NumericalFailure as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 3
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except MemoryError as exc:
        sys.stderr.write(f"error: out of memory: {exc}\n")
        return 2


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return _exit_code(args.func, args)


if __name__ == "__main__":
    sys.exit(main())
