"""Command-line front end: it parses and dispatches, and each ``analyze
--sweep`` is one library sweep at its defaults, the paper's grid.

Outputs are machine-readable (CSV/JSON) on stdout or at --out; progress
notes, and ``simulate``'s EDP ratio when its CSV is on stdout, go to
stderr (--json-logs makes the log JSON lines). Exit codes: 0 success, 1
usage error, 2 data error. Sweep worker count follows TASD_THREADS.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import math
import shlex
import sys
from pathlib import Path

from .approxmm import error_sweep, render_error_csv
from .decomp import (
    DISTRIBUTIONS,
    decompose,
    drop_metrics,
    random_matrix,
    render_sweep_csv,
    sweep_synthetic,
)
from .errors import DegenerateProduct, TasdError
from .hwmodel import (
    BUILTIN_SPECS,
    HwSpec,
    cost_row,
    pattern_table,
    render_cost_csv,
    workload_cost,
)
from .matrix import (
    TasdConfig, decode, load_matrix, render_csv, save_indices, save_matrix, write_json,
)
from .search import (
    layer_wise_greedy,
    network_wise_search,
    profile_calibration,
    save_assignment,
    load_assignment,
    select_activation_configs,
    uniform_assignment,
)
from .workload import CommandOracle, ErrorOracle, MagnitudeOracle, load_calibration, load_workload

log = logging.getLogger("tasd.cli")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _density(text: str) -> float:
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"density must be in [0, 1], got {text}")
    return value


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text}")
    return value


def _rho(text: str) -> float:
    value = _finite(text)
    if not 0.0 < value <= 1.0:
        raise argparse.ArgumentTypeError(f"rho must be in (0, 1], got {text}")
    return value


def _seconds(text: str) -> float:
    value = _finite(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive number of seconds, got {text}")
    return value


def _positive(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def _load_hw(spec: str) -> HwSpec:
    factory = BUILTIN_SPECS.get(spec)
    if factory is not None:
        return factory()
    return HwSpec.from_json(spec)


def _write_text(out: str, text: str) -> None:
    if out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", newline="") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen(args) -> int:
    mat = random_matrix(args.rows, args.cols, args.density, args.dist, args.seed)
    save_matrix(mat, args.out)
    log.info("wrote %dx%d %s matrix to %s", args.rows, args.cols, args.dist, args.out)
    return 0


def cmd_decompose(args) -> int:
    mat = load_matrix(args.infile)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    d = decompose(mat, args.config)
    for i, term in enumerate(d.terms):
        save_matrix(decode(term), out_dir / f"term_{i:02d}.tasd1")
        save_indices(term, out_dir / f"term_{i:02d}.indices.json")
    save_matrix(d.residual, out_dir / "residual.tasd1")
    metrics = drop_metrics(d)
    metrics_path = Path(args.metrics) if args.metrics else out_dir / "metrics.json"
    write_json(
        {
            "config": d.config.canonical(),
            "rows": d.residual.shape[0],
            "cols": d.residual.shape[1],
            "term_nnz": [t.nnz for t in d.terms],
            **dataclasses.asdict(metrics),
        },
        metrics_path,
    )
    log.info("decomposed %s into %d terms under %s", args.infile, len(d.terms), out_dir)
    return 0


def _sweeps() -> dict:
    """``--sweep`` name -> (library sweep, CSV renderer). Built per call, so
    that wrappers set on this module's names (``perfbench/tracer.py``) run."""
    return {
        "appendixA": (sweep_synthetic, render_sweep_csv),
        "matmul-error": (error_sweep, render_error_csv),
    }


def cmd_analyze(args) -> int:
    sweep, render = _sweeps()[args.sweep]
    table = sweep(seeds=range(args.num_seeds), master_seed=args.seed)
    _write_text(args.out, render(table))
    log.info("%s sweep: %d rows", args.sweep, len(table))
    return 0


def _make_oracle(spec: str, timeout: float | None):
    if spec == "magnitude":
        return MagnitudeOracle()
    if spec == "error":
        return ErrorOracle()
    return CommandOracle(shlex.split(spec), timeout)


def cmd_search(args) -> int:
    wl = load_workload(args.workload)
    hw = _load_hw(args.hw)
    menu = hw.menu
    oracle = _make_oracle(args.oracle, args.oracle_timeout)
    trace: list[dict] = []

    if args.mode == "network":
        cfg, quality = network_wise_search(
            wl, menu, oracle, threshold=args.threshold, trace=trace,
            cost=lambda a: workload_cost(hw, wl, a)[0].cycles,
        )
        assignment = uniform_assignment(wl, cfg)
        log.info("network-wise pick: %s (quality %g)", cfg.canonical(), quality)
    elif args.mode == "greedy":
        assignment = layer_wise_greedy(
            wl,
            menu,
            oracle,
            threshold=args.threshold,
            skip_and_continue=args.skip_and_continue,
            trace=trace,
        )
        log.info("greedy configured %d of %d layers", len(assignment), len(wl.layers))
    else:
        stats = [
            profile_calibration(load_calibration(ly), ly.layer_id) for ly in wl.layers
        ]
        assignment = select_activation_configs(
            stats,
            menu,
            alpha=args.alpha,
            rho=args.rho,
            relu_based=not args.pseudo,
            statistic=args.statistic,
        )
        for st in stats:
            cfg = assignment.get(st.layer_id)
            trace.append(
                {
                    "layer": st.layer_id,
                    "sparsity_mean": st.act_sparsity_mean,
                    "sparsity_p99": st.act_sparsity_p99,
                    "config": cfg.canonical() if cfg else "dense",
                }
            )
        log.info(
            "activation selection configured %d of %d layers",
            len(assignment),
            len(wl.layers),
        )

    save_assignment(assignment, args.out)
    if args.log:
        with open(args.log, "w") as fh:
            for entry in trace:
                fh.write(json.dumps(entry) + "\n")
    return 0


def cmd_simulate(args) -> int:
    wl = load_workload(args.workload)
    hw = _load_hw(args.hw)
    assignment = load_assignment(args.assignment) if args.assignment else {}
    dense_report, _ = workload_cost(hw, wl, {})
    if dense_report.edp == 0.0:
        raise DegenerateProduct("the dense workload costs zero EDP, so no EDP ratio exists")
    report, rows = workload_cost(hw, wl, assignment)
    rows.append(cost_row("total", "-", report))
    _write_text(args.out, render_cost_csv(rows))
    ratio = report.edp / dense_report.edp
    # stdout carries the CSV when --out is '-', so the ratio goes to stderr
    print(f"edp_vs_dense={ratio!r}", file=sys.stderr if args.out == "-" else sys.stdout)
    log.info(
        "cycles %d, energy %.3g pJ, EDP %.3g (%.3gx dense)",
        report.cycles,
        report.energy_pj,
        report.edp,
        ratio,
    )
    return 0


def cmd_patterns(args) -> int:
    hw = _load_hw(args.hw)
    rows = [{"total_n": n, "realization": cfg or "-"} for n, cfg in pattern_table(hw)]
    sys.stdout.write(render_csv("total_n,realization", rows))
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> _Parser:
    parser = _Parser(
        prog="tasd",
        description="Structured-sparse series approximation toolkit",
    )
    parser.add_argument(
        "--json-logs", action="store_true", help="emit stderr logs as JSON lines"
    )
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("gen", help="generate a random matrix file")
    p.add_argument("--rows", type=_positive, required=True)
    p.add_argument("--cols", type=_positive, required=True)
    p.add_argument("--density", type=_density, required=True)
    p.add_argument("--dist", choices=DISTRIBUTIONS, default="uniform")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("decompose", help="split a matrix into N:M terms")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--config", type=TasdConfig.parse, required=True, metavar="N:M[+N:M...]")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--metrics", default=None, help="metrics JSON path (default OUT_DIR/metrics.json)")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("analyze", help="run a synthetic sweep and emit CSV")
    p.add_argument("--sweep", choices=_sweeps(), required=True)
    p.add_argument("--out", default="-", help="CSV path, '-' for stdout")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--num-seeds", type=_positive, default=20)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("search", help="pick per-layer configs for a workload")
    p.add_argument("--workload", required=True)
    p.add_argument(
        "--hw",
        required=True,
        help="hardware spec JSON path or builtin name "
        f"({', '.join(sorted(BUILTIN_SPECS))})",
    )
    p.add_argument("--mode", choices=("network", "greedy", "activation"), required=True)
    p.add_argument("--alpha", type=_finite, default=0.05)
    p.add_argument("--rho", type=_rho, default=0.99)
    p.add_argument("--threshold", type=_finite, default=0.99)
    p.add_argument(
        "--oracle",
        default="magnitude",
        help="'magnitude', 'error', or an external command line, split as a shell would",
    )
    p.add_argument(
        "--oracle-timeout",
        type=_seconds,
        default=None,
        metavar="SECONDS",
        help="kill an external oracle command (its whole process group) after "
        "this long and fail with exit 2",
    )
    p.add_argument("--statistic", choices=("p99", "mean"), default="p99")
    p.add_argument(
        "--pseudo-density",
        dest="pseudo",
        action="store_true",
        help="non-ReLU activations: derive sparsity from magnitude samples",
    )
    p.add_argument("--skip-and-continue", action="store_true")
    p.add_argument("--out", required=True, help="assignment JSON path")
    p.add_argument("--log", default=None, help="JSONL trace of evaluated candidates")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("simulate", help="cost a workload under an assignment")
    p.add_argument("--workload", required=True)
    p.add_argument("--hw", required=True)
    p.add_argument("--assignment", default=None)
    p.add_argument("--out", default="-", help="per-layer cost CSV, '-' for stdout")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("patterns", help="print the supported-pattern table")
    p.add_argument("--hw", required=True)
    p.set_defaults(func=cmd_patterns)

    return parser


class _JsonFormatter(logging.Formatter):
    def format(self, record):
        return json.dumps(
            {
                "level": record.levelname.lower(),
                "logger": record.name,
                "message": record.getMessage(),
            }
        )


def _setup_logging(json_logs: bool) -> None:
    handler = logging.StreamHandler(sys.stderr)
    if json_logs:
        handler.setFormatter(_JsonFormatter())
    else:
        handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    root = logging.getLogger("tasd")
    root.handlers[:] = [handler]
    root.setLevel(logging.INFO)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"tasd: error: {exc}", file=sys.stderr)
        return 1
    _setup_logging(args.json_logs)
    if getattr(args, "func", None) is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        return args.func(args)
    except (TasdError, OSError, ValueError) as exc:
        log.error("%s", exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
