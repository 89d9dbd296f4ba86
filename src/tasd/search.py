"""The selection algorithms over a pattern menu: uniform network-wide
search, drop-sorted greedy per layer, and sparsity-guided selection for
activations. Each returns an ``Assignment`` (see ``tasd.matrix``).
"""

from __future__ import annotations

import numpy as np

from .errors import EmptyCalibration, NonFiniteEntry, SchemaError
from .matrix import (
    Assignment,
    NmPattern,
    PatternMenu,
    TasdConfig,
    _is_number,
    _is_real,
    as_matrix,
    block_nnz,
    dense_config,
    enumerate_configs,
    read_json,
    sparsity,
    write_json,
)


# ---------------------------------------------------------------------------
# weight-side search


def ranked_pairs(workload, menu: PatternMenu):
    """(layer, config) pairs sorted by dropped non-zeros ascending.

    Ties prefer the larger coverage, then earlier layer order. Dense is
    not a pair; it is the starting state of every layer.
    A menu config is same-m, so its series keeps min(nnz, sum_n) of each
    m-block: the drop is counted from the blocks, on Python ints, and
    equals ``drop_metrics(decompose(...)).dropped_nnz_fraction``.
    """
    configs = [c for c in enumerate_configs(menu) if not c.is_dense]
    pairs = []
    for li, layer in enumerate(workload.layers):
        if layer.weight is None:
            raise SchemaError(f"layer {layer.layer_id} has no weight matrix")
        counts = block_nnz(layer.weight, menu.m)
        total = int(counts.sum())
        for cfg in configs:
            dropped = int(np.maximum(counts - cfg.sum_n, 0).sum())
            drop = dropped / total if total else 0.0
            pairs.append((drop, -cfg.coverage, li, layer.layer_id, cfg))
    pairs.sort(key=lambda p: (p[0], p[1], p[2]))
    return [(drop, layer_id, cfg) for drop, _, _, layer_id, cfg in pairs]


def layer_wise_greedy(
    workload,
    menu: PatternMenu,
    oracle,
    threshold: float = 0.99,
    skip_and_continue: bool = False,
    trace: list | None = None,
) -> Assignment:
    """Apply drop-sorted (layer, config) pairs until quality falls below
    threshold x baseline; the violating pair is reverted.

    A later pair replaces the layer's earlier config: pairs arrive in
    ascending-drop order, so replacement always escalates. With the
    default stop rule the first violation ends the single pass; with
    ``skip_and_continue`` the pass keeps going past it.
    """
    gate = _quality_gate(workload, threshold)
    assignment: Assignment = {}
    for drop, layer_id, cfg in ranked_pairs(workload, menu):
        previous = assignment.get(layer_id)
        assignment[layer_id] = cfg
        quality = oracle.evaluate(workload, assignment)
        applied = quality >= gate
        if not applied:
            if previous is None:
                del assignment[layer_id]
            else:
                assignment[layer_id] = previous
        if trace is not None:
            trace.append(
                {
                    "layer": layer_id,
                    "config": cfg.canonical(),
                    "drop": drop,
                    "quality": quality,
                    "applied": applied,
                }
            )
        if not applied and not skip_and_continue:
            break
    return assignment


def _quality_gate(workload, threshold: float) -> float:
    """threshold x baseline; a threshold that is not a finite number (NaN,
    Inf, a bool, a string, None) is a ``ValueError``."""
    if not _is_number(threshold):
        raise ValueError(f"threshold must be a finite number, got {threshold!r}")
    return threshold * workload.baseline_quality


def uniform_assignment(workload, cfg: TasdConfig) -> Assignment:
    """``cfg`` on every layer of ``workload``; empty when ``cfg`` is dense."""
    return {} if cfg.is_dense else {ly.layer_id: cfg for ly in workload.layers}


def network_wise_search(
    workload,
    menu: PatternMenu,
    oracle,
    threshold: float = 0.99,
    *,
    cost,
    trace: list | None = None,
):
    """Try every enumerated config uniformly on all layers; return the
    cheapest one whose quality clears threshold x baseline, with its
    quality. ``cost(assignment)`` prices a candidate, as the cycles of
    ``hwmodel.workload_cost`` do in the CLI. Falls back to dense when
    nothing qualifies.
    """
    gate = _quality_gate(workload, threshold)
    best_cfg = best_cost = best_quality = dense_quality = None
    for cfg in enumerate_configs(menu):
        assignment = uniform_assignment(workload, cfg)
        quality = oracle.evaluate(workload, assignment)
        if cfg.is_dense:
            dense_quality = quality
        price = cost(assignment)
        qualified = quality >= gate
        if trace is not None:
            trace.append(
                {
                    "config": cfg.canonical(),
                    "quality": quality,
                    "cost": price,
                    "qualified": qualified,
                }
            )
        if qualified and (best_cost is None or price < best_cost):
            best_cfg, best_cost, best_quality = cfg, price, quality
    if best_cfg is None:
        return dense_config(menu), dense_quality
    return best_cfg, best_quality


# ---------------------------------------------------------------------------
# activation-side selection


def sparsity_select(layer_sparsity: float, alpha: float, menu: PatternMenu) -> TasdConfig:
    """Config with the largest approximated sparsity strictly below
    layer_sparsity + alpha; dense when none fits or the target is <= 0.
    Each must be a real number (else ``ValueError``) and finite (else
    ``NonFiniteEntry``)."""
    for name, value in (("sparsity", layer_sparsity), ("alpha", alpha)):
        if not _is_number(value):
            error = NonFiniteEntry if _is_real(value) else ValueError
            raise error(f"{name} must be a finite number, got {value!r}")
    target = layer_sparsity + alpha
    # configs come by coverage ascending, so the first that fits is the sparsest
    fits = (cfg for cfg in enumerate_configs(menu) if cfg.approximated_sparsity < target)
    return next(fits, dense_config(menu))


def sample_sparsities(samples, rho: float | None = None) -> list[float]:
    """Each calibration sample's sparsity; with ``rho``, for a non-ReLU
    activation, its pseudo-sparsity ``1 - pseudo_density(sample, rho)``."""
    if rho is None:
        return [sparsity(s) for s in samples]
    return [1.0 - pseudo_density(as_matrix(s), rho) for s in samples]


def pseudo_density(magnitudes, rho: float = 0.99) -> float:
    """Smallest k/len whose k largest entries of the array-like
    ``magnitudes`` (any shape) sum to at least rho of the total; 0 for an
    all-zero (or empty) input."""
    if not (_is_number(rho) and 0.0 < rho <= 1.0):
        raise ValueError(f"rho must be a number in (0, 1], got {rho!r}")
    mags = np.abs(np.asarray(magnitudes, dtype=np.float64)).ravel()
    if not np.isfinite(mags).all():
        raise NonFiniteEntry("magnitudes must be finite")
    if mags.size == 0:
        return 0.0
    csum = np.cumsum(np.sort(mags)[::-1])
    total = float(csum[-1])
    if total <= 0.0:
        return 0.0
    k = int(np.searchsorted(csum, rho * total)) + 1
    return min(k, mags.size) / mags.size


def select_activation_configs(
    sparsities,
    menu: PatternMenu,
    alpha: float = 0.05,
    statistic: str = "p99",
    trace: list | None = None,
) -> Assignment:
    """Per-layer sparsity-guided selection from ``{layer_id: [per-sample
    values]}``, as ``sample_sparsities`` gives them.

    Each layer's config comes from ``sparsity_select`` on the p99 (default)
    or the mean of its values. Dense picks are left out of the assignment;
    a layer with no values is an ``EmptyCalibration``.
    """
    if statistic not in ("p99", "mean"):
        raise ValueError(f"statistic must be 'p99' or 'mean', got {statistic!r}")
    assignment: Assignment = {}
    for layer_id, values in sparsities.items():
        if len(values) == 0:
            raise EmptyCalibration(f"no calibration samples for layer {layer_id!r}")
        mean, p99 = float(np.mean(values)), float(np.percentile(values, 99))
        cfg = sparsity_select(p99 if statistic == "p99" else mean, alpha, menu)
        if not cfg.is_dense:
            assignment[layer_id] = cfg
        if trace is not None:
            trace.append(
                {
                    "layer": layer_id,
                    "sparsity_mean": mean,
                    "sparsity_p99": p99,
                    "config": "dense" if cfg.is_dense else cfg.canonical(),
                }
            )
    return assignment


# ---------------------------------------------------------------------------
# assignment serialization


def save_assignment(assignment: Assignment, path) -> None:
    obj = {lid: {"terms": [[t.n, t.m] for t in cfg.terms]} for lid, cfg in assignment.items()}
    write_json(obj, path)


def load_assignment(path) -> Assignment:
    obj = read_json(path)
    if not isinstance(obj, dict):
        raise SchemaError("assignment must be a JSON object")
    assignment: Assignment = {}
    for layer_id, entry in obj.items():
        if not isinstance(entry, dict) or "terms" not in entry:
            raise SchemaError(f"assignment entry for {layer_id!r} needs 'terms'")
        try:
            terms = tuple(NmPattern(n, m) for n, m in entry["terms"])
            assignment[layer_id] = TasdConfig(terms)
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"bad terms for layer {layer_id!r}: {exc}") from exc
    return assignment
