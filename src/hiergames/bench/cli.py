"""Benchmark CLI.

    hiergames run --spec FILE --out DIR --seed U64 [--jobs N]
    hiergames validate --spec FILE
    hiergames tables --in DIR
    hiergames plotdata --in DIR [--out DIR]

Exit codes: 0 success, 1 validation failure, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from .runner import aggregate_rows, emit_csv, markdown_table, read_csv_rows, run_experiment, write_summary
from .spec import SpecValidationError, load_spec

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1 (argparse's 2 is the runtime code); the
    subcommand parsers inherit this class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_VALIDATION, f"validation error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hiergames", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute an experiment spec")
    run_p.add_argument("--spec", required=True)
    run_p.add_argument("--out", required=True)
    run_p.add_argument("--seed", type=int, required=True, help="64-bit root seed")
    run_p.add_argument("--jobs", type=int, default=1)

    val_p = sub.add_parser("validate", help="check an experiment spec")
    val_p.add_argument("--spec", required=True)

    tab_p = sub.add_parser("tables", help="summarize emitted CSVs as Markdown")
    tab_p.add_argument("--in", dest="in_dir", required=True)

    plot_p = sub.add_parser("plotdata", help="emit gnuplot-style .dat trajectory files")
    plot_p.add_argument("--in", dest="in_dir", required=True)
    plot_p.add_argument("--out", dest="out_dir", default=None)
    return parser


def cmd_run(args) -> int:
    spec = load_spec(args.spec)
    if args.jobs < 1:
        print(f"validation error: --jobs must be >= 1, got {args.jobs}", file=sys.stderr)
        return EXIT_VALIDATION
    aggregates, rows, _reports = run_experiment(spec, root_seed=args.seed, jobs=args.jobs)
    out = Path(args.out)
    emit_csv(rows, out / "runs.csv")
    write_summary(aggregates, out)
    print(markdown_table(aggregates), end="")
    failed = [r for r in rows if math.isnan(r.residual)]
    for r in failed:
        print(f"runtime error: run {r.sweep_key}/seed={r.seed} failed: {r.failure}",
              file=sys.stderr)
    return EXIT_RUNTIME if failed else EXIT_OK


def cmd_validate(args) -> int:
    load_spec(args.spec)
    print("ok")
    return EXIT_OK


def _runs_csvs(in_dir: Path) -> list[Path]:
    csvs = sorted(in_dir.glob("**/runs.csv"))
    if not csvs:
        raise SpecValidationError([f"no runs.csv under {in_dir}"])
    return csvs


def cmd_tables(args) -> int:
    for path in _runs_csvs(Path(args.in_dir)):
        rows = read_csv_rows(path)
        print(f"## {path.parent.name}\n")
        print(markdown_table(aggregate_rows(rows)))
    return EXIT_OK


def cmd_plotdata(args) -> int:
    in_dir = Path(args.in_dir)
    out_dir = Path(args.out_dir) if args.out_dir else in_dir
    for path in _runs_csvs(in_dir):
        groups: dict[tuple[str, int], list] = {}
        for r in read_csv_rows(path):
            groups.setdefault((r.sweep_key, r.seed), []).append(r)
        for (key, seed), rs in sorted(groups.items()):
            safe = key.replace("=", "-").replace(".", "_").replace("/", "_")
            target = out_dir / f"{path.parent.name}_{safe}_seed{seed}.dat"
            target.parent.mkdir(parents=True, exist_ok=True)
            lines = ["# iter residual samples_cum"]
            lines += [f"{r.iter} {r.residual:.17g} {r.samples_cum}" for r in rs]
            target.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote plot data to {out_dir}")
    return EXIT_OK


def main(argv=None) -> int:
    """Run one command; the only place where an error becomes an exit code.

    A spec, ``--jobs`` or ``runs.csv`` problem is a validation error (1);
    so is a usage error, which the parser reports by exiting with 1.
    A numeric failure, a broken worker pool, overflow, exhausted memory or
    an I/O error is a runtime error (2).  Anything else is a bug and
    propagates with its traceback.
    """
    args = _build_parser().parse_args(argv)
    handler = {
        "run": cmd_run,
        "validate": cmd_validate,
        "tables": cmd_tables,
        "plotdata": cmd_plotdata,
    }[args.command]
    try:
        return handler(args)
    except SpecValidationError as err:
        print(f"validation error: {err}", file=sys.stderr)
        return EXIT_VALIDATION
    except (RuntimeError, ArithmeticError, MemoryError, OSError) as err:
        # RuntimeError covers NumericError and BrokenProcessPool.
        print(f"runtime error: {err}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    raise SystemExit(main())
