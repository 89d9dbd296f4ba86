"""Analytical latency/energy/EDP model of a structured-sparse GEMM
accelerator built from a grid of tensor cores with per-block
decomposition units.

Dataflow being modeled: the B operand tiles live in the L2 scratchpad,
C tiles stay in L1 across per-term passes, and each A element is held
stationary in a PE register. A arrives compressed (values plus packed
block indices), B is fetched from DRAM once, and every extra series term
costs one more pass over B in L2 plus a read-modify-write of C in L1.

The energy table ships with illustrative per-access values; the model is
calibrated for relative comparisons (ratios, EDP direction), not joules.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, fields
from types import MappingProxyType

from .errors import MixedM, NotExpressible, SchemaError
from .matrix import (
    Assignment, PatternMenu, TasdConfig, _is_int, _is_number, config_of, enumerate_configs,
    is_expressible, read_json, render_csv, write_json,
)

COST_CSV_HEADER = "layer,config,cycles,stalls,macs,e_mac,e_rf,e_l1,e_l2,e_dram,e_tasd,edp"

_ENERGY_KEYS = ("mac", "rf_access", "l1_access", "l2_access", "dram_access")


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


@dataclass(frozen=True)
class HwSpec:
    m: int
    base_patterns: frozenset[int]
    max_terms: int
    ttc_count: int
    pe_rows: int
    pe_cols: int
    tasd_units_per_ttc: int
    blocks_out_per_cycle: int
    elem_bytes: int
    energy_pj: MappingProxyType

    def __post_init__(self):
        object.__setattr__(self, "base_patterns", frozenset(self.base_patterns))
        for name in _COUNT_FIELDS:
            value = getattr(self, name)
            if not _is_int(value) or value <= 0:
                raise SchemaError(f"{name} must be a positive integer, got {value!r}")
        try:
            self.menu  # PatternMenu checks the base patterns are integers in [1, m]
        except ValueError as exc:
            raise SchemaError(f"bad pattern menu: {exc}") from exc
        if not isinstance(self.energy_pj, Mapping):
            raise SchemaError("energy table must be a JSON object")
        energy = dict(self.energy_pj)
        for key in _ENERGY_KEYS:
            if key not in energy:
                raise SchemaError(f"energy table missing {key!r}")
        # decomposition-unit energy is optional; register-file cost is the
        # closest stand-in for one packed-slot handling step
        energy.setdefault("tasd_unit", energy["rf_access"])
        for key, value in energy.items():
            if not (_is_number(value) and value >= 0):
                raise SchemaError(f"energy entry {key!r} must be a finite non-negative number")
        energy = {key: float(value) for key, value in energy.items()}
        object.__setattr__(self, "energy_pj", MappingProxyType(energy))

    @property
    def menu(self) -> PatternMenu:
        return PatternMenu(self.m, self.base_patterns, self.max_terms)

    def to_dict(self) -> dict:
        return {
            **{name: getattr(self, name) for name in _COUNT_FIELDS},
            "base_patterns": sorted(self.base_patterns),
            "energy_pj": dict(self.energy_pj),
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "HwSpec":
        if not isinstance(obj, dict):
            raise SchemaError("hardware spec must be a JSON object")
        try:
            return cls(
                base_patterns=frozenset(obj["base_patterns"]),
                energy_pj=obj["energy_pj"],
                **{name: obj[name] for name in _COUNT_FIELDS},
            )
        except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
            raise SchemaError(f"bad hardware spec: {exc}") from exc

    @classmethod
    def from_json(cls, path) -> "HwSpec":
        return cls.from_dict(read_json(path))

    def save(self, path) -> None:
        write_json(self.to_dict(), path)


# the positive integer counts, in declaration order (the annotations are
# strings under ``from __future__ import annotations``)
_COUNT_FIELDS = tuple(f.name for f in fields(HwSpec) if f.type == "int")


_ILLUSTRATIVE_ENERGY = {
    "mac": 2.0,
    "rf_access": 0.5,
    "l1_access": 1.0,
    "l2_access": 4.0,
    "dram_access": 80.0,
    "tasd_unit": 0.5,
}


def vegeta_m8() -> HwSpec:
    """Four-core m=8 target: bases {1,2,4}, two chained terms, 16x16 PEs,
    16 decomposition units per core (enough for two blocks per cycle at
    the worst-case sum of n)."""
    return HwSpec(
        m=8,
        base_patterns=frozenset({1, 2, 4}),
        max_terms=2,
        ttc_count=4,
        pe_rows=16,
        pe_cols=16,
        tasd_units_per_ttc=16,
        blocks_out_per_cycle=2,
        elem_bytes=2,
        energy_pj=dict(_ILLUSTRATIVE_ENERGY),
    )


def stc_m4() -> HwSpec:
    """Single-core m=4 target supporting 2:4 and dense only."""
    return HwSpec(
        m=4,
        base_patterns=frozenset({2}),
        max_terms=1,
        ttc_count=1,
        pe_rows=16,
        pe_cols=16,
        tasd_units_per_ttc=4,
        blocks_out_per_cycle=1,
        elem_bytes=2,
        energy_pj=dict(_ILLUSTRATIVE_ENERGY),
    )


BUILTIN_SPECS = {"vegeta-m8": vegeta_m8, "stc-m4": stc_m4}


# ---------------------------------------------------------------------------
# pattern support


def pattern_table(hw: HwSpec) -> list[tuple[int, TasdConfig | None]]:
    """(total n, realization) for every total 1..m; None = unsupported."""
    by_total = {cfg.sum_n: cfg for cfg in enumerate_configs(hw.menu)}
    return [(total, by_total.get(total)) for total in range(1, hw.m + 1)]


def decomp_latency(config) -> int:
    """Cycles one decomposition unit needs per block: the sum of n over
    the series (each term's extraction drains n slots)."""
    cfg = config_of(config)
    if not cfg.same_m:
        raise MixedM(f"hardware cannot decompose mixed-m series {cfg.canonical()}")
    return cfg.sum_n


def required_tasd_units(hw: HwSpec, config: TasdConfig | None = None) -> int:
    """Units per core for stall-free output: blocks emitted per cycle
    times the per-block latency (worst case m when no config is given)."""
    latency = hw.m if config is None else decomp_latency(config)
    return hw.blocks_out_per_cycle * latency


# ---------------------------------------------------------------------------
# cost model


@dataclass(frozen=True)
class CostReport:
    cycles: int
    stall_cycles: int
    mac_count: int
    energy_pj: float
    breakdown: MappingProxyType
    edp: float


def _report(cycles: int, stalls: int, macs: int, breakdown: dict, overflow: str) -> CostReport:
    try:
        energy = float(sum(breakdown.values()))
        edp = energy * int(cycles)
        finite = math.isfinite(edp) and math.isfinite(macs)  # the EDP bounds cycles and energy
    except OverflowError:  # a count too large to convert to a float
        finite = False
    if not finite:
        raise SchemaError(overflow)
    return CostReport(
        cycles=int(cycles),
        stall_cycles=int(stalls),
        mac_count=int(macs),
        energy_pj=energy,
        breakdown=MappingProxyType(dict(breakdown)),
        edp=edp,
    )


_ZERO_BREAKDOWN = {"mac": 0.0, "rf": 0.0, "l1": 0.0, "l2": 0.0, "dram": 0.0, "tasd_unit": 0.0}
_GEMM_OVERFLOW = "the GEMM's cost overflows a float: dims or energies too large"


def gemm_cost(
    hw: HwSpec,
    gemm_m: int,
    gemm_n: int,
    gemm_k: int,
    config=None,
) -> CostReport:
    """Cycles, per-level energy, and EDP of one (possibly decomposed) GEMM;
    ``config`` is None or anything ``config_of`` takes.

    Dense execution (config None or a single n=m term) bypasses the
    decomposition units entirely: no per-block extraction energy, no
    metadata traffic, no extra C passes. A cost too large for a float is a
    ``SchemaError``.
    """
    config = None if config is None else config_of(config)
    if not all(_is_int(d) and d >= 0 for d in (gemm_m, gemm_n, gemm_k)):
        raise ValueError("GEMM dims must be non-negative integers")
    if gemm_m == 0 or gemm_n == 0 or gemm_k == 0:
        return _report(0, 0, 0, dict(_ZERO_BREAKDOWN), _GEMM_OVERFLOW)
    try:
        return _priced_gemm(hw, gemm_m, gemm_n, gemm_k, config)
    except OverflowError:  # a count times an energy, too large for a float
        raise SchemaError(_GEMM_OVERFLOW) from None


def _priced_gemm(hw, gemm_m, gemm_n, gemm_k, config) -> CostReport:
    """The body of ``gemm_cost`` for positive integer dims."""
    dense = config is None or config.is_dense
    if not dense and not is_expressible(config, hw.menu):
        raise NotExpressible(
            f"target (m={hw.m}, bases {sorted(hw.base_patterns)}, "
            f"max {hw.max_terms} terms) cannot run {config.canonical()}"
        )

    m = hw.m
    ns = [] if dense else [t.n for t in config.terms]
    n_terms = 1 if dense else len(ns)
    # K extent of each per-term pass through the PE array
    extents = [gemm_k] if dense else [_ceil_div(gemm_k * n, m) for n in ns]

    panel_rows = hw.pe_rows * hw.ttc_count
    m_passes = _ceil_div(gemm_m, panel_rows)
    n_tiles = _ceil_div(gemm_n, hw.pe_cols)
    compute_cycles = m_passes * n_tiles * sum(extents)

    stalls = 0
    if not dense:
        needed = required_tasd_units(hw, config)
        avail = hw.tasd_units_per_ttc
        if needed > avail:
            # output stage throttled to the decomposition throughput
            stalls = _ceil_div(compute_cycles * (needed - avail), avail)
    cycles = compute_cycles + stalls

    macs = gemm_m * gemm_n * sum(extents)

    # A operand: compressed values plus block indices (none when dense),
    # once per term, DRAM -> L2 -> RF
    a_elems = sum(gemm_m * ext for ext in extents)
    blocks_per_term = gemm_m * _ceil_div(gemm_k, m)
    bits = max(1, math.ceil(math.log2(m)))
    meta_elems = sum(blocks_per_term * _ceil_div(n * bits, 8) for n in ns) / hw.elem_bytes
    a_traffic = a_elems + meta_elems

    # B operand: DRAM once; one L2 sweep per term per row panel
    b_dram = gemm_k * gemm_n
    b_l2 = n_terms * m_passes * gemm_k * gemm_n

    # C operand: built in L1, re-read and re-written once per extra term,
    # then drained to DRAM
    c_l1 = gemm_m * gemm_n * (1 + 2 * (n_terms - 1))
    c_dram = gemm_m * gemm_n

    energy = hw.energy_pj
    breakdown = {
        "mac": macs * energy["mac"],
        "rf": a_traffic * energy["rf_access"],
        "l1": c_l1 * energy["l1_access"],
        "l2": (a_traffic + b_l2) * energy["l2_access"],
        "dram": (a_traffic + b_dram + c_dram) * energy["dram_access"],
        "tasd_unit": blocks_per_term * sum(ns) * energy["tasd_unit"],
    }
    return _report(cycles, stalls, macs, breakdown, _GEMM_OVERFLOW)


def workload_cost(hw: HwSpec, workload, assignment: Assignment | None = None):
    """Cost every layer under the assignment; returns the aggregate
    report plus per-layer rows ready for the cost CSV."""
    assignment = assignment or {}
    unknown = set(assignment) - {ly.layer_id for ly in workload.layers}
    if unknown:
        raise SchemaError(f"no layer {', '.join(sorted(map(repr, unknown)))} in the workload")
    rows = []
    cycles = stalls = macs = 0
    totals = dict(_ZERO_BREAKDOWN)
    for ly in workload.layers:
        cfg = assignment.get(ly.layer_id)
        report = gemm_cost(hw, ly.gemm_m, ly.gemm_n, ly.gemm_k, cfg)
        cycles += report.cycles
        stalls += report.stall_cycles
        macs += report.mac_count
        for key in totals:
            totals[key] += report.breakdown[key]
        config = cfg.canonical() if cfg is not None else "dense"
        rows.append(cost_row(ly.layer_id, config, report))
    overflow = "the workload's cost overflows a float: GEMM dims or energies too large"
    return _report(cycles, stalls, macs, totals, overflow), rows


def cost_row(layer: str, config: str, report: CostReport) -> dict:
    """One line of the cost CSV: a layer (or the total) and its report."""
    energy = report.breakdown
    return {
        "layer": layer,
        "config": config,
        "cycles": report.cycles,
        "stalls": report.stall_cycles,
        "macs": report.mac_count,
        "e_mac": energy["mac"],
        "e_rf": energy["rf"],
        "e_l1": energy["l1"],
        "e_l2": energy["l2"],
        "e_dram": energy["dram"],
        "e_tasd": energy["tasd_unit"],
        "edp": report.edp,
    }


def render_cost_csv(rows) -> str:
    return render_csv(COST_CSV_HEADER, rows)
