"""Per-layer metrics from the spans of one traced job or set-up.

Each layer's metrics come from the spans the tracer records around its
public functions: calls are span counts, ``busy_s`` sums span durations
(over all threads), ``self_s`` subtracts the union of child spans, and
``wall_s`` sums the outermost spans. Ratios with a zero base read 0.
"""

from __future__ import annotations

import numpy as np

from tracer import SpanIndex

ORACLE = "workload.oracle"


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def job_metrics(spans, cal_samples: int) -> dict[str, float]:
    """Metrics of one job; ``cal_samples`` is calibration samples per layer."""
    ix = SpanIndex(spans)
    out: dict[str, float] = {}

    def calls(name):
        return len(ix.named(name))

    def busy(name):
        return sum(s.dur for s in ix.named(name))

    def self_s(name):
        return sum(ix.self_time(s) for s in ix.named(name))

    def info_sum(name):
        return sum(s.info or 0 for s in ix.named(name))

    extract, matmul = "kernels.extract", "kernels.matmul"
    out["kernels.extract.calls"] = calls(extract)
    out["kernels.extract.busy_s"] = busy(extract)
    out["kernels.matmul.calls"] = calls(matmul)
    out["kernels.matmul.busy_s"] = busy(matmul)
    out["kernels.matmul.gflops"] = _ratio(info_sum(matmul), busy(matmul)) / 1e9

    maps = ix.named("parallel.map_ordered")
    out["parallel.workers"] = max((s.info or 0 for s in maps), default=0)
    out["parallel.map_ordered.wall_s"] = sum(s.dur for s in maps)
    out["parallel.utilization"] = _ratio(
        busy("parallel.task"), sum(s.dur * (s.info or 1) for s in maps)
    )

    for name in ("decomp.decompose", "approxmm.matmul", "approxmm.relative_error"):
        out[f"{name}.calls"] = calls(name)
    for name in ("decomp.decompose", "decomp.drop_metrics", "decomp.random_matrix",
                 "approxmm.matmul", "approxmm.relative_error", "search.ranked_pairs"):
        out[f"{name}.self_s"] = self_s(name)

    decomps = ix.named("decomp.decompose")
    out["search.ranked_pairs.decompositions"] = sum(
        1 for s in decomps if ix.ancestor(s, "search.ranked_pairs")
    )
    out["search.layer_wise_greedy.wall_s"] = busy("search.layer_wise_greedy")
    out["search.network_wise_search.wall_s"] = busy("search.network_wise_search")
    out["search.steps"] = info_sum("search.layer_wise_greedy") + info_sum(
        "search.network_wise_search"
    )

    evals = ix.named(ORACLE)
    oracle_matmuls = [s for s in ix.named(matmul) if ix.ancestor(s, ORACLE)]
    pairs = {p for s in evals for p in (s.info or ())}
    # pairs scored by an evaluation that multiplied, and their layers
    product_sids = {ix.ancestor(s, ORACLE).sid for s in oracle_matmuls}
    product_pairs = {p for s in evals if s.sid in product_sids for p in (s.info or ())}
    product_layers = {layer for layer, _ in product_pairs}
    oracle_decomps = sum(1 for s in decomps if ix.ancestor(s, ORACLE))
    out["workload.oracle.evals"] = len(evals)
    out["workload.oracle.busy_s"] = sum(s.dur for s in evals)
    out["workload.oracle.eval_ms_p50"] = (
        float(np.median([s.dur for s in evals])) * 1e3 if evals else 0.0
    )
    out["workload.oracle.decompositions"] = oracle_decomps
    out["workload.oracle.matmuls"] = len(oracle_matmuls)
    out["workload.oracle.distinct_pairs"] = len(pairs)
    out["workload.oracle.useful_decomp_ratio"] = _ratio(len(pairs), oracle_decomps)
    out["workload.oracle.useful_matmul_ratio"] = _ratio(
        (len(product_pairs) + len(product_layers)) * cal_samples, len(oracle_matmuls)
    )
    out["workload.load_workload.s"] = busy("workload.load_workload")

    out["hwmodel.workload_cost.calls"] = calls("hwmodel.workload_cost")
    out["hwmodel.workload_cost.busy_s"] = busy("hwmodel.workload_cost")
    out["hwmodel.gemm_cost.calls"] = calls("hwmodel.gemm_cost")

    out["matrix.load_matrix.calls"] = calls("matrix.load_matrix")
    out["matrix.load_matrix.busy_s"] = busy("matrix.load_matrix")
    out["matrix.decode.busy_s"] = busy("matrix.decode")

    commands = [s for s in ix.spans if s.name.startswith("cli.")]
    for command in ("analyze", "search", "simulate"):
        out[f"cli.{command}.wall_s"] = busy(f"cli.{command}")
    out["cli.overhead_s"] = sum(ix.self_time(s) for s in commands)
    return out


def setup_metrics(spans) -> dict[str, float]:
    """Metrics of one set-up: input generation, pruning and files."""
    ix = SpanIndex(spans)
    saves = ix.named("matrix.save_matrix")
    return {
        "setup.matrix.save_matrix.calls": len(saves),
        "setup.matrix.save_matrix.bytes": sum(s.info or 0 for s in saves),
        "setup.matrix.load_matrix.calls": len(ix.named("matrix.load_matrix")),
        "setup.decomp.random_matrix.self_s": sum(
            ix.self_time(s) for s in ix.named("decomp.random_matrix")
        ),
        "setup.decomp.decompose.calls": len(ix.named("decomp.decompose")),
        "setup.kernels.extract.calls": len(ix.named("kernels.extract")),
        "setup.kernels.extract.busy_s": sum(s.dur for s in ix.named("kernels.extract")),
    }

