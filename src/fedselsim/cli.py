"""Command-line entry point: run / compare / gen-traces / plotdata."""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

from .config import SELECTOR_KINDS, load_config
from .engine import (
    METRIC_ROWS,
    REPORT_VERSION,
    Comparison,
    compare_selectors,
    round_log_rows,
    run_many,
    summarize_reports,
    synthetic_pool,
)
from .errors import ConfigError, SimulationError
from .traces import serialize_trace_file

# Summary rows that also get an across-seed spread row in the comparison CSV
# (the two accuracy rows are themselves the across-seed mean/std).
_SPREAD_ROWS = tuple(
    label for label in METRIC_ROWS if label not in ("Accuracy mean", "Accuracy std")
)


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def _write_json(path: Path, document: dict) -> None:
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")


def _print_summary(rows: dict[str, tuple[float, float | None]]) -> None:
    width = max(len(label) for label in METRIC_ROWS)
    print(f"{'metric':<{width}}  {'mean':>14}  {'std':>12}")
    for label in METRIC_ROWS:
        value, spread = rows[label]
        spread_txt = "" if spread is None else f"{spread:.3f}"
        print(f"{label:<{width}}  {value:>14.3f}  {spread_txt:>12}")


def _resolve_seeds(cfg, args) -> list[int]:
    if args.seed_override is None:
        return list(cfg.seeds.run_seeds)
    if args.seed_override < 0:
        raise ConfigError(f"--seed-override must be >= 0, got {args.seed_override}")
    return [args.seed_override]


def _jobs(args) -> int:
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
    return args.jobs


def cmd_run(args) -> int:
    jobs = _jobs(args)
    cfg = load_config(args.config)
    out_dir = Path(args.out) if args.out else Path(cfg.output.directory)
    seeds = _resolve_seeds(cfg, args)
    reports = run_many(cfg, seeds, jobs=jobs)
    summary = summarize_reports(reports)

    out_dir.mkdir(parents=True, exist_ok=True)
    if "json" in cfg.output.formats:
        document = {
            "report_version": REPORT_VERSION,
            "run_seeds": seeds,
            "summary": {
                label: {"value": value, "std": spread}
                for label, (value, spread) in summary.items()
            },
            "reports": [r.to_dict() for r in reports],
        }
        _write_json(out_dir / "report.json", document)
    if "csv" in cfg.output.formats:
        for report in reports:
            path = out_dir / f"rounds_seed{report.run_seed}.csv"
            with path.open("w", newline="") as fh:
                csv.writer(fh).writerows(round_log_rows(report))

    print(f"selector: {cfg.selector.kind}   seeds: {seeds}   out: {out_dir}")
    _print_summary(summary)
    return 0


def _comparison_csv_rows(comparison: Comparison) -> list[list[str]]:
    rows = [["metric"] + comparison.selectors]
    for label in METRIC_ROWS:
        rows.append(
            [label] + [_fmt(comparison.summaries[kind][label][0]) for kind in comparison.selectors]
        )
    for label in _SPREAD_ROWS:
        rows.append(
            [f"{label} std"]
            + [_fmt(comparison.summaries[kind][label][1]) for kind in comparison.selectors]
        )
    rows.append(
        ["Fastest"] + ["*" if kind == comparison.fastest else "" for kind in comparison.selectors]
    )
    return rows


def _print_comparison(comparison: Comparison) -> None:
    width = max(len(label) + 4 for label in METRIC_ROWS)
    cell_w = 22
    header = "".join(
        f"{kind + (' *' if kind == comparison.fastest else ''):>{cell_w}}"
        for kind in comparison.selectors
    )
    print(f"{'metric':<{width}}{header}")
    for label in METRIC_ROWS:
        cells = []
        for kind in comparison.selectors:
            value, spread = comparison.summaries[kind][label]
            text = _fmt(value) if spread is None else f"{_fmt(value)} ± {_fmt(spread)}"
            cells.append(f"{text:>{cell_w}}")
        print(f"{label:<{width}}{''.join(cells)}")
    print(f"fastest: {comparison.fastest} (lowest mean training time)")


def cmd_compare(args) -> int:
    jobs = _jobs(args)
    cfg = load_config(args.config)
    kinds = [kind.strip() for kind in args.selectors.split(",") if kind.strip()]
    for kind in kinds:
        if kind not in SELECTOR_KINDS:
            raise ConfigError(f"unknown selector {kind!r}; expected one of {SELECTOR_KINDS}")
    out_dir = Path(args.out) if args.out else Path(cfg.output.directory)
    seeds = _resolve_seeds(cfg, args)
    comparison = compare_selectors(cfg, kinds, run_seeds=seeds, jobs=jobs)

    out_dir.mkdir(parents=True, exist_ok=True)
    with (out_dir / "compare.csv").open("w", newline="") as fh:
        csv.writer(fh).writerows(_comparison_csv_rows(comparison))
    _print_comparison(comparison)
    return 0


def cmd_gen_traces(args) -> int:
    cfg = load_config(args.config)
    pool = synthetic_pool(cfg)
    out = Path(args.out) if args.out else Path(cfg.output.directory) / "traces.txt"
    if out.exists() and out.is_dir():
        out = out / "traces.txt"
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("w") as fh:
        fh.writelines(serialize_trace_file(pool))
    print(f"wrote {len(pool)} traces to {out}")
    return 0


def _curve_points(path: Path, label: str, curve) -> list[tuple[float, float]]:
    """The (time_s, accuracy) pairs of one curve; ConfigError names a bad point."""
    if not isinstance(curve, list):
        raise ConfigError(f"report {path}: accuracy_curve of {label} is not a list")
    points = []
    for i, point in enumerate(curve):
        values = []
        for key in ("time_s", "accuracy"):
            value = point.get(key) if isinstance(point, dict) else None
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ConfigError(
                    f"report {path}: point {i} of {label} needs a numeric {key!r}, got {point!r}"
                )
            values.append(float(value))
        points.append((values[0], values[1]))
    return points


def _curve_series(path: Path) -> list[tuple[str, list[tuple[float, float]]]]:
    try:
        document = json.loads(path.read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read report {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed report JSON {path}: {exc}") from None
    stem = path.stem
    if isinstance(document, dict) and "reports" in document:
        if not isinstance(document["reports"], list):
            raise ConfigError(f"report {path}: 'reports' is not a list")
        series = []
        for i, entry in enumerate(document["reports"]):
            if not isinstance(entry, dict):
                raise ConfigError(f"report {path}: reports[{i}] is not an object, got {entry!r}")
            label = f"{stem}:{entry.get('selector', '?')}:seed{entry.get('run_seed', '?')}"
            series.append((label, _curve_points(path, label, entry.get("accuracy_curve", []))))
        return series
    if isinstance(document, dict) and "accuracy_curve" in document:
        return [(stem, _curve_points(path, stem, document["accuracy_curve"]))]
    raise ConfigError(f"report {path} has no accuracy curves")


def cmd_plotdata(args) -> int:
    # Every series is read and checked before the output is opened, so a bad
    # report leaves no partial CSV behind.
    series: list[tuple[str, list[tuple[float, float]]]] = []
    for raw in args.reports:
        series.extend(_curve_series(Path(raw)))
    out = Path(args.out) if args.out else Path("plotdata.csv")
    if out.exists() and out.is_dir():
        out = out / "plotdata.csv"
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["label", "time_s", "accuracy"])
        for label, curve in series:
            for time_s, accuracy in curve:
                writer.writerow([label, repr(time_s), repr(accuracy)])
    print(f"wrote {sum(len(c) for _, c in series)} points ({len(series)} series) to {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedselsim",
        description="Deterministic federated-learning client-selection simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="experiment config (YAML)")
        p.add_argument("--out", help="output directory (default: config output.directory)")
        p.add_argument("--jobs", type=int, default=1, help="parallel experiment cells")
        p.add_argument(
            "--seed-override", type=int, default=None, help="replace run_seeds with one seed"
        )

    p_run = sub.add_parser("run", help="run the configured selector over all run seeds")
    common(p_run)
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="run several selectors over one shared world")
    common(p_cmp)
    p_cmp.add_argument(
        "--selectors",
        default=",".join(SELECTOR_KINDS),
        help="comma-separated selector kinds (default: all five)",
    )
    p_cmp.set_defaults(func=cmd_compare)

    p_gen = sub.add_parser("gen-traces", help="write the config's synthetic trace pool to a file")
    p_gen.add_argument("--config", required=True, help="experiment config (YAML)")
    p_gen.add_argument("--out", help="output file (default: <output.directory>/traces.txt)")
    p_gen.set_defaults(func=cmd_gen_traces)

    p_plot = sub.add_parser("plotdata", help="extract accuracy-vs-time series as CSV")
    p_plot.add_argument("reports", nargs="+", help="report JSON files from `run`")
    p_plot.add_argument("--out", help="output CSV file (default: plotdata.csv)")
    p_plot.set_defaults(func=cmd_plotdata)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SimulationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
