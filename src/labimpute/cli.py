"""Command-line interface.

Exit codes: 0 success, 1 usage error, 2 bad input data or config,
3 violated internal guarantee, including an experiment run that failed on an
exception other than bad input (its result tables are still written).
"""

from __future__ import annotations

import argparse
import csv
import re
import sys
from pathlib import Path

from ._rng import make_rng
from .data import (
    apply_mcar,
    load_csv,
    save_csv,
    split_label,
)
from .errors import DataError, InvariantError, _non_negative_real, _positive, checked
from .forest import ForestParams
from .harness import _check_formats, emit_report, load_experiment_config, run_experiment
from .imputers import MiceParams, MissForestParams, impute
from .strategies import cbmi_predict
from .theory import sample_instance, verify_theorem1

_THEOREM_TAG = 909090


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # a negative number that float() reads, such as -1e-05 or -inf, is a
        # value, not a flag
        self._negative_number_matcher = re.compile(
            r"^-((\d+\.?\d*|\.\d+)(e[-+]?\d+)?|inf|infinity|nan)$", re.IGNORECASE)

    # return a usage exit code instead of letting argparse kill the process
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out-dir", default=".",
                        help="directory for output files (default .)")
    seeded = argparse.ArgumentParser(add_help=False, parents=[common])
    seeded.add_argument("--seed", type=int, default=0,
                        help="master random seed (default 0)")

    parser = _Parser(
        prog="labimpute",
        description="Random-forest imputation and classification-by-imputation "
                    "for tables with missing values.",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser(
        "simulate", parents=[seeded],
        help="knock out a uniform random fraction of cells in a complete CSV",
    )
    p.add_argument("input", help="complete input CSV")
    p.add_argument("--rate", type=float, required=True,
                   help="fraction of cells to blank, in [0, 1)")

    p = sub.add_parser(
        "impute", parents=[seeded],
        help="fill every missing cell of a CSV, label columns too",
    )
    p.add_argument("input", help="input CSV with missing cells")
    p.add_argument("--method", choices=("missforest", "mice"),
                   default="missforest")
    p.add_argument("--trees", type=int, default=ForestParams.n_trees,
                   help="trees per forest (missforest only; default %(default)s)")
    p.add_argument("--max-iter", type=int, default=MissForestParams.max_iter,
                   help="sweep limit (missforest only; default %(default)s)")
    p.add_argument("--n-iter", type=int, default=MiceParams.n_iter,
                   help="sweep count (mice only; default %(default)s)")
    p.add_argument("--ridge", type=float, default=MiceParams.ridge,
                   help="ridge penalty (mice only; default %(default)s)")

    p = sub.add_parser(
        "cbmi", parents=[seeded],
        help="classify test rows by imputing their blanked-out labels "
             "jointly with the training rows",
    )
    p.add_argument("--train", required=True, help="training CSV with labels")
    p.add_argument("--test", required=True, help="test CSV without the label column")
    p.add_argument("--label", required=True, help="label column in the training CSV")
    p.add_argument("--trees", type=int, default=ForestParams.n_trees,
                   help="trees per forest (default %(default)s)")
    p.add_argument("--max-iter", type=int, default=MissForestParams.max_iter,
                   help="sweep limit (default %(default)s)")

    p = sub.add_parser(
        "experiment", parents=[common],
        help="run a configured experiment and write its result tables",
    )
    p.add_argument("--config", required=True,
                   help="experiment config JSON; its seed drives every draw")
    p.add_argument("--threads", type=int, default=1,
                   help="worker processes for experiment cells, at most "
                        "one per cell (default 1)")
    p.add_argument("--formats", default="csv,json",
                   help="comma-separated output formats (csv,json)")

    p = sub.add_parser(
        "theorem-check", parents=[seeded],
        help="verify the label-stacking error decomposition on random instances",
    )
    p.add_argument("--instances", type=int, default=1000)
    p.add_argument("--n-min", type=int, default=5)
    p.add_argument("--n-max", type=int, default=50)
    p.add_argument("--tol", type=float, default=1e-8,
                   help="identity residual bound, scaled by max(1, |SSE|); "
                        "finite and >= 0 (default %(default)s)")

    return parser


def _out_dir(args) -> Path:
    """The output directory, made before any work whose result it would hold."""
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_simulate(args) -> int:
    table = load_csv(args.input)
    masked, mask = apply_mcar(table, args.rate, args.seed)
    out = _out_dir(args)
    save_csv(masked, out / "masked.csv")
    with open(out / "mask.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("row", "col"))
        writer.writerows(zip(*mask.nonzero()))
    print(f"masked {mask.sum()} of {table.n_rows * table.n_cols} cells "
          f"-> {out / 'masked.csv'}")
    return 0


def _missforest_params(args) -> MissForestParams:
    return MissForestParams(forest=ForestParams(n_trees=args.trees),
                            max_iter=args.max_iter, seed=args.seed)


def _cmd_impute(args) -> int:
    table = load_csv(args.input)
    params = (_missforest_params(args) if args.method == "missforest"
              else MiceParams(n_iter=args.n_iter, ridge=args.ridge))
    out = _out_dir(args)
    completed, trace = impute(table, params)
    save_csv(completed, out / "imputed.csv")
    note = ""
    if trace is not None:
        trace.to_csv(out / "trace.csv")
        note = f" ({len(trace.sweeps)} sweeps, stopped: {trace.stop_reason})"
    print(f"imputed -> {out / 'imputed.csv'}{note}")
    return 0


def _cmd_cbmi(args) -> int:
    x_train, y_train = split_label(load_csv(args.train), args.label)
    # read under the training schema: categories keep the training codes
    test = load_csv(args.test, x_train.schema)
    path = _out_dir(args) / "predictions.csv"
    res = cbmi_predict(x_train, y_train, test, _missforest_params(args))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow((args.label,))
        for idx in res.y_pred.as_ints():
            writer.writerow((res.y_pred.categories[idx],))
    print(f"predicted {res.y_pred.n} labels -> {path}")
    return 0


def _cmd_experiment(args) -> int:
    config = load_experiment_config(args.config)
    formats = tuple(f for f in args.formats.split(",") if f)
    _check_formats(formats)
    out = _out_dir(args)
    report = run_experiment(config, threads=args.threads)
    paths = emit_report(report, out, formats=formats)
    n_err = sum(1 for r in report.records if r.status != "ok")
    note = f", {n_err} failed" if n_err else ""
    print(f"{len(report.records)} runs{note} -> " + ", ".join(map(str, paths)))
    defects = [r for r in report.records if r.defect]
    if defects:
        print(f"invariant violated: {len(defects)} runs failed on an unexpected "
              f"exception, first: {defects[0].error}", file=sys.stderr)
        return 3
    return 0


def _cmd_theorem_check(args) -> int:
    checked(args.instances, _positive, "--instances")
    checked(args.tol, _non_negative_real, "--tol")
    if not (3 <= args.n_min <= args.n_max):
        raise DataError("need 3 <= --n-min <= --n-max")
    rng = make_rng(args.seed, _THEOREM_TAG)
    path = _out_dir(args) / "theorem_reports.csv"
    worst = 0.0
    wins = 0
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow((
            "instance", "n", "gamma_intercept", "gamma_feature", "gamma_label",
            "v_plus", "v_minus", "sse_with_label", "sse_without_label",
            "identity_residual", "stacking_wins",
        ))
        for i in range(args.instances):
            n = int(rng.integers(args.n_min, args.n_max + 1))
            inst = sample_instance(rng, n)
            rep = verify_theorem1(inst, tol=args.tol)
            worst = max(worst, rep.identity_residual)
            wins += rep.iul_wins
            writer.writerow((
                i, n,
                f"{rep.gamma[0]:.6g}", f"{rep.gamma[1]:.6g}", f"{rep.gamma[2]:.6g}",
                f"{rep.v_plus:.6g}", f"{rep.v_minus:.6g}",
                f"{rep.sse_iul:.6g}", f"{rep.sse_di:.6g}",
                f"{rep.identity_residual:.6g}", rep.iul_wins,
            ))
    print(f"verified {args.instances} instances "
          f"(worst residual {worst:.3g}, stacking won {wins}) -> {path}")
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "impute": _cmd_impute,
    "cbmi": _cmd_cbmi,
    "experiment": _cmd_experiment,
    "theorem-check": _cmd_theorem_check,
}


def cli_main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    if args.command is None:
        parser.print_help()
        return 1
    try:
        return _COMMANDS[args.command](args)
    except (DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantError as exc:
        print(f"invariant violated: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(cli_main())
