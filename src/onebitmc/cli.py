"""Command-line interface.

Subcommands: generate (write a ground-truth matrix file), fit (run one
estimator; nuclear_penalized writes the penalized minimizer, without the
rank-r refit that sweeps apply), evaluate (risk report for an estimate against
a truth), sweep (replicated experiment grid to CSV), rate (log-log slope table
and SVG from a sweep CSV), version.  Exit codes: 0 success, 1 invalid
arguments or I/O problems, 2 numerical failure.
"""

import argparse
import csv
import json
import sys
from pathlib import Path

from . import __version__
from .experiments import (ESTIMATOR_IDS, aggregate_points, load_sweep_config,
                          read_sweep_rows, run_sweep, sweep_config_from_dict,
                          fit_rate)
from .matrixio import (read_matrix, read_samples, read_truth, write_matrix,
                       write_samples, write_truth)
from .model import GENERATORS, SCHEMES, Shape, generate_truth, sample_observations
from .risk import risk_report
from .seeding import mix_seed, TAG_SAMPLES
from .solvers import ESTIMATORS, SOLVERS, SolverConfig, SolverNumericalError


class _Parser(argparse.ArgumentParser):
    """argparse variant that exits with status 1 on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="onebitmc",
                     description="One-bit matrix completion toolkit")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    gen = sub.add_parser("generate", help="write a ground-truth matrix file")
    gen.add_argument("--m1", type=int, required=True, help="row count")
    gen.add_argument("--m2", type=int, required=True, help="column count")
    gen.add_argument("--r", type=int, required=True, help="rank budget")
    gen.add_argument("--gamma", type=float, required=True,
                     help="entrywise amplitude bound")
    gen.add_argument("--generator", choices=GENERATORS, default="block_sign")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True, help="output matrix file")
    gen.set_defaults(func=_cmd_generate)

    fit = sub.add_parser("fit", help="fit one estimator and write the estimate")
    fit.add_argument("--truth", help="truth matrix file (source of samples "
                     "and of default gamma/rank)")
    fit.add_argument("--samples", help="serialized sample-set file; replaces "
                     "--n/--scheme/--sample-seed")
    fit.add_argument("--n", type=int, help="sample count to draw from the truth")
    fit.add_argument("--scheme", choices=SCHEMES, default="iid_uniform")
    fit.add_argument("--sample-seed", type=int, default=0)
    fit.add_argument("--save-samples", help="also write the sample set used")
    fit.add_argument("--estimator", choices=ESTIMATORS, required=True)
    fit.add_argument("--out", required=True, help="output estimate file")
    fit.add_argument("--gamma", type=float, help="override gamma (default: truth file)")
    fit.add_argument("--rank", type=int, help="override rank hint (default: truth file)")
    fit.add_argument("--lambda", dest="lam", type=float, default=0.0,
                     help="penalty weight (nuclear_penalized)")
    fit.add_argument("--max-iters", type=int, default=2000)
    fit.add_argument("--factor-width", type=int)
    fit.add_argument("--seed", type=int, default=0,
                     help="seed of the max-norm solver's random start")
    fit.set_defaults(func=_cmd_fit)

    ev = sub.add_parser("evaluate", help="print a risk report as one CSV line: "
                        "risk,bayes_risk,excess,frob_err_sq_norm")
    ev.add_argument("--estimate", required=True, help="estimate matrix file")
    ev.add_argument("--truth", required=True, help="truth matrix file")
    ev.set_defaults(func=_cmd_evaluate)

    sw = sub.add_parser("sweep", help="run an experiment grid to CSV")
    sw.add_argument("--config", required=True, help="JSON sweep configuration")
    sw.add_argument("--out", required=True, help="output CSV path")
    sw.add_argument("--seed", type=int, help="override base_seed")
    sw.add_argument("--threads", type=int, default=1,
                    help="worker threads (default: 1)")
    sw.add_argument("--set", dest="overrides", action="append", default=[],
                    metavar="KEY=VALUE",
                    help="override a sweep config key; solver keys via "
                    "solver_defaults.KEY")
    sw.set_defaults(func=_cmd_sweep)

    rate = sub.add_parser("rate", help="fit log-log slopes from a sweep CSV")
    rate.add_argument("--config", required=True, help="JSON sweep configuration")
    rate.add_argument("--in", dest="input", required=True, help="sweep CSV")
    rate.add_argument("--out", required=True, help="rate table CSV")
    rate.add_argument("--svg", help="plot path (default: rate table with .svg)")
    rate.set_defaults(func=_cmd_rate)

    ver = sub.add_parser("version", help="print the package version")
    ver.set_defaults(func=_cmd_version)
    return parser


def _cmd_generate(args) -> int:
    truth = generate_truth(Shape(args.m1, args.m2), args.r, args.gamma,
                           args.generator, args.seed)
    write_truth(args.out, truth, seed=args.seed)
    print(f"wrote {args.m1}x{args.m2} truth (r={args.r}, gamma={args.gamma}, "
          f"margin={truth.margin_tau:.6g}) to {args.out}")
    return 0


def _cmd_fit(args) -> int:
    truth = read_truth(args.truth) if args.truth else None
    if args.samples:
        samples = read_samples(args.samples)
    else:
        if truth is None:
            raise ValueError("--truth is required unless --samples is given")
        if args.n is None:
            raise ValueError("--n is required unless --samples is given")
        samples = sample_observations(truth, args.n, args.scheme,
                                      mix_seed(args.sample_seed, TAG_SAMPLES))
    gamma = args.gamma if args.gamma is not None else (truth.gamma if truth else None)
    rank = args.rank if args.rank is not None else (truth.rank_budget if truth else None)
    if gamma is None or rank is None:
        raise ValueError("--gamma and --rank are required when no truth file "
                         "provides them")
    config = SolverConfig(gamma=gamma, rank_hint=rank, lam=args.lam,
                          max_iters=args.max_iters,
                          factor_width=args.factor_width, seed=args.seed)
    result = SOLVERS[args.estimator](samples, config)
    write_matrix(args.out, result.estimate,
                 {"estimator": args.estimator, "gamma": f"{gamma:.17g}",
                  "r": rank})
    if args.save_samples:
        write_samples(args.save_samples, samples)
    rep = result.feasibility_report
    print(f"estimator={args.estimator} n={samples.n} "
          f"iterations={result.iterations} converged={str(result.converged).lower()} "
          f"objective={result.objective_trace[-1]:.12g} "
          f"nuclear_norm={rep.nuclear_norm:.6g} "
          f"inf_violation={rep.inf_norm_violation:.3g} "
          f"maxnorm_bound={rep.maxnorm_upper_bound:.6g} work={result.work}")
    return 0


def _cmd_evaluate(args) -> int:
    estimate, _ = read_matrix(args.estimate)
    truth = read_truth(args.truth)
    report = risk_report(estimate, truth)
    print(",".join(f"{v:.17g}" for v in (report.risk, report.bayes_risk,
                                         report.excess,
                                         report.frob_error_sq_normalized)))
    return 0


def _apply_overrides(raw: dict, overrides: list) -> dict:
    for item in overrides:
        if "=" not in item:
            raise ValueError(f"override {item!r} is not KEY=VALUE")
        key, value = item.split("=", 1)
        try:
            parsed = json.loads(value)
        except json.JSONDecodeError:
            parsed = value
        if key.startswith("solver_defaults."):
            raw.setdefault("solver_defaults", {})[key.split(".", 1)[1]] = parsed
        else:
            raw[key] = parsed
    return raw


def _cmd_sweep(args) -> int:
    with open(args.config) as handle:
        raw = json.load(handle)
    raw = _apply_overrides(raw, args.overrides)
    if args.seed is not None:
        raw["base_seed"] = args.seed
    config = sweep_config_from_dict(raw)
    results = run_sweep(config, args.out, threads=args.threads)
    print(f"wrote {sum(len(r.records) for r in results)} replicate rows "
          f"({len(results)} cells) to {args.out}")
    return 0


def _cmd_rate(args) -> int:
    config = load_sweep_config(args.config)
    rows = read_sweep_rows(args.input)
    out_rows = []
    series = []
    for estimator in sorted(config.estimators, key=ESTIMATOR_IDS.get):
        for key, vals in sorted(aggregate_points(rows, estimator).items()):
            m1, m2, r, gamma = key
            points = [(n, excess) for n, excess, _ in vals]
            try:
                fit = fit_rate(points)
                slope, intercept, r2 = fit.slope, fit.intercept, fit.r_squared
            except ValueError:
                slope = intercept = r2 = None
            out_rows.append([estimator, m1, m2, r, f"{gamma:.17g}",
                             "" if slope is None else f"{slope:.17g}",
                             "" if intercept is None else f"{intercept:.17g}",
                             "" if r2 is None else f"{r2:.17g}",
                             len(points)])
            positive = [(n, e) for n, e in points if e > 0]
            if positive:
                series.append({"label": f"{estimator} {m1}x{m2} r={r}",
                               "points": positive, "slope": slope,
                               "intercept": intercept})
    with open(args.out, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["estimator", "m1", "m2", "r", "gamma", "slope",
                         "intercept", "r_squared", "n_points"])
        writer.writerows(out_rows)
    svg_path = args.svg or str(Path(args.out).with_suffix(".svg"))
    if series:
        from .svgplot import loglog_plot
        with open(svg_path, "w") as handle:
            handle.write(loglog_plot(series, "mean excess risk vs n"))
    print(f"wrote {len(out_rows)} rate rows to {args.out}")
    return 0


def _cmd_version(args) -> int:
    print(__version__)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return int(code) if code else 0
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"onebitmc: error: {exc}", file=sys.stderr)
        return 1
    except (SolverNumericalError, ArithmeticError) as exc:
        print(f"onebitmc: numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
