"""GEMM workload manifests and pluggable quality oracles.

A workload is an ordered list of layers (M, N, K dims plus an optional
weight matrix and calibration data) with a baseline quality score.
Quality itself is abstract: two built-in proxies (retained weight
magnitude, calibration output error) are normalized so a dense
assignment scores exactly the baseline, and an external command can
stand in for a real model evaluation.
"""

from __future__ import annotations

import json
import math
import subprocess
import tempfile
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from .approxmm import reference_norm, residual_error
from .decomp import approximate, decompose, drop_metrics
from .errors import (
    DegenerateProduct,
    DimensionMismatch,
    MissingCalibration,
    NonFiniteEntry,
    OracleFailure,
    SchemaError,
)
from .matrix import DenseMatrix, TasdConfig, load_matrix, save_matrix
from .search import Assignment, LayerStats


@dataclass(frozen=True)
class LayerSpec:
    layer_id: str
    gemm_m: int
    gemm_n: int
    gemm_k: int
    weight: DenseMatrix | None = None
    weight_path: str | None = None
    act_stats: LayerStats | None = None
    weights_sparse: bool = False
    acts_sparse: bool = False
    calibration_dir: str | None = None

    def __post_init__(self):
        if min(self.gemm_m, self.gemm_n, self.gemm_k) <= 0:
            raise SchemaError(f"layer {self.layer_id!r} needs positive GEMM dims")
        if self.weight is not None and self.weight.shape != (self.gemm_m, self.gemm_k):
            raise DimensionMismatch(
                f"layer {self.layer_id!r} weight is {self.weight.shape}, "
                f"expected ({self.gemm_m}, {self.gemm_k})"
            )
        if self.weight is not None and not np.isfinite(self.weight).all():
            raise NonFiniteEntry(f"layer {self.layer_id!r} weight has NaN or Inf entries")


@dataclass(frozen=True)
class Workload:
    name: str
    layers: tuple[LayerSpec, ...]
    baseline_quality: float

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        if not self.layers:
            raise SchemaError("workload has no layers")
        ids = [ly.layer_id for ly in self.layers]
        if len(set(ids)) != len(ids):
            raise SchemaError("layer ids must be unique")

    def layer(self, layer_id: str) -> LayerSpec:
        for ly in self.layers:
            if ly.layer_id == layer_id:
                return ly
        raise KeyError(layer_id)

    def total_macs(self, assignment: Assignment | None = None) -> int:
        """Dense MACs scaled per layer by its config coverage (exact
        rational arithmetic, rounded once at the end)."""
        assignment = assignment or {}
        total = Fraction(0)
        for ly in self.layers:
            cfg = assignment.get(ly.layer_id)
            cov = Fraction(1) if cfg is None else _coverage_fraction(cfg)
            total += Fraction(ly.gemm_m * ly.gemm_n * ly.gemm_k) * cov
        return round(total)


def _coverage_fraction(cfg: TasdConfig) -> Fraction:
    cov = sum((Fraction(t.n, t.m) for t in cfg.terms), Fraction(0))
    return min(cov, Fraction(1))


def total_macs(workload: Workload, assignment: Assignment | None = None) -> int:
    return workload.total_macs(assignment)


# ---------------------------------------------------------------------------
# manifest loading


def load_workload(manifest_path) -> Workload:
    """Read a workload manifest; matrix paths resolve relative to it."""
    manifest_path = Path(manifest_path)
    with open(manifest_path) as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{manifest_path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise SchemaError(f"{manifest_path}: manifest must be a JSON object")
    try:
        name = str(obj["name"])
        baseline = float(obj["baseline_quality"])
        raw_layers = obj["layers"]
    except KeyError as exc:
        raise SchemaError(f"{manifest_path}: missing key {exc}") from exc
    if not isinstance(raw_layers, list) or not raw_layers:
        raise SchemaError(f"{manifest_path}: 'layers' must be a non-empty list")
    if not math.isfinite(baseline):
        raise SchemaError(f"{manifest_path}: baseline_quality must be finite")

    base_dir = manifest_path.parent
    layers = []
    for entry in raw_layers:
        if not isinstance(entry, dict):
            raise SchemaError(f"{manifest_path}: each layer must be an object")
        try:
            layer_id = str(entry["id"])
            dims = (int(entry["m"]), int(entry["n"]), int(entry["k"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"{manifest_path}: bad layer entry: {exc}") from exc
        weight = None
        weight_path = entry.get("weight")
        if weight_path is not None:
            weight = load_matrix(base_dir / weight_path)
        calibration_dir = entry.get("calibration_dir")
        if calibration_dir is not None:
            calibration_dir = str(base_dir / calibration_dir)
        layers.append(
            LayerSpec(
                layer_id=layer_id,
                gemm_m=dims[0],
                gemm_n=dims[1],
                gemm_k=dims[2],
                weight=weight,
                weight_path=weight_path,
                weights_sparse=bool(entry.get("weights_sparse", False)),
                acts_sparse=bool(entry.get("acts_sparse", False)),
                calibration_dir=calibration_dir,
            )
        )
    return Workload(name=name, layers=tuple(layers), baseline_quality=baseline)


def load_calibration(layer: LayerSpec) -> list[DenseMatrix]:
    """Every matrix file under the layer's calibration_dir, in file-name
    order; each sample is one K-row activation batch."""
    if layer.calibration_dir is None:
        raise MissingCalibration(f"layer {layer.layer_id!r} has no calibration_dir")
    paths = sorted(Path(layer.calibration_dir).glob("*"))
    samples = [load_matrix(p) for p in paths if p.is_file()]
    if not samples:
        raise MissingCalibration(f"no calibration matrices under {layer.calibration_dir}")
    for sample in samples:
        if sample.shape[0] != layer.gemm_k:
            raise DimensionMismatch(
                f"calibration sample for {layer.layer_id!r} has "
                f"{sample.shape[0]} rows, expected {layer.gemm_k}"
            )
    return samples


# ---------------------------------------------------------------------------
# quality oracles


@dataclass
class QualityOracle:
    """Scores an assignment; kinds: retained_magnitude, output_error,
    external_command. The two proxies return baseline_quality for a dense
    assignment; the external command's stdout is returned as-is.

    The proxies are means of per-layer scores, so each (layer, config)
    pair is scored once and kept as a float, next to each layer's
    calibration samples and their reference norms ||W @ B||_F. The caches
    hold the data of one workload: scoring another Workload object clears
    them. The external command always scores the whole network.
    """

    kind: str
    command: object = None
    _workload: Workload | None = field(default=None, repr=False, compare=False)
    _calibration: dict = field(default_factory=dict, repr=False, compare=False)
    _scores: dict = field(default_factory=dict, repr=False, compare=False)

    KINDS = ("retained_magnitude", "output_error", "external_command")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError(f"oracle kind must be one of {self.KINDS}")
        if self.kind == "external_command" and not self.command:
            raise ValueError("external_command oracle needs a command")

    @classmethod
    def retained_magnitude(cls) -> "QualityOracle":
        return cls("retained_magnitude")

    @classmethod
    def output_error(cls) -> "QualityOracle":
        return cls("output_error")

    @classmethod
    def external_command(cls, command) -> "QualityOracle":
        return cls("external_command", command=command)

    def evaluate(self, workload: Workload, assignment: Assignment) -> float:
        if self.kind == "external_command":
            return self._external(workload, assignment)
        if workload is not self._workload:
            self._workload = workload
            self._calibration.clear()
            self._scores.clear()
        magnitude = self.kind == "retained_magnitude"
        scores = []
        for ly in workload.layers:
            cfg = assignment.get(ly.layer_id)
            if cfg is None or cfg.is_dense:
                scores.append(1.0 if magnitude else 0.0)
            else:
                scores.append(self._layer_score(ly, cfg))
        if magnitude:
            return workload.baseline_quality * float(np.mean(scores))
        return workload.baseline_quality * (1.0 - float(np.mean(scores)))

    def _layer_score(self, layer: LayerSpec, cfg: TasdConfig) -> float:
        """Retained magnitude fraction, or mean relative product error over
        the calibration samples, of one configured layer."""
        key = (layer.layer_id, cfg.canonical())
        score = self._scores.get(key)
        if score is not None:
            return score
        if layer.weight is None:
            raise OracleFailure(f"layer {layer.layer_id!r} has no weight to score")
        if self.kind == "retained_magnitude":
            score = drop_metrics(decompose(layer.weight, cfg)).retained_magnitude_fraction
        else:
            calibration = self._samples_and_norms(layer)
            residual = decompose(layer.weight, cfg).residual
            score = float(
                np.mean([residual_error(residual, b, norm) for b, norm in calibration])
            )
        self._scores[key] = score
        return score

    def _samples_and_norms(self, layer: LayerSpec):
        """(sample, ||W @ sample||_F) pairs of the layer, loaded once."""
        cached = self._calibration.get(layer.layer_id)
        if cached is not None:
            return cached
        samples = load_calibration(layer)
        try:
            cached = [(b, reference_norm(layer.weight, b)) for b in samples]
        except DegenerateProduct as exc:
            raise OracleFailure(f"layer {layer.layer_id!r}: {exc}") from exc
        self._calibration[layer.layer_id] = cached
        return cached

    def _external(self, workload, assignment) -> float:
        with tempfile.TemporaryDirectory(prefix="tasd-oracle-") as tmp:
            manifest = self._write_handoff(Path(tmp), workload, assignment)
            argv = list(self.command) if isinstance(self.command, (list, tuple)) else [
                str(self.command)
            ]
            argv.append(str(manifest))
            try:
                proc = subprocess.run(argv, capture_output=True, text=True)
            except OSError as exc:
                raise OracleFailure(f"cannot run oracle command: {exc}") from exc
            if proc.returncode != 0:
                raise OracleFailure(
                    f"oracle command exited {proc.returncode}: {proc.stderr.strip()}"
                )
            try:
                value = float(proc.stdout.strip())
            except ValueError:
                raise OracleFailure(
                    f"oracle printed {proc.stdout.strip()!r}, expected one number"
                ) from None
            if not math.isfinite(value):
                raise OracleFailure(f"oracle returned non-finite {value!r}")
            return value

    def _write_handoff(self, tmp: Path, workload, assignment) -> Path:
        """Per-layer approximated dense weights plus a JSON index."""
        layers = []
        for ly in workload.layers:
            cfg = assignment.get(ly.layer_id)
            entry = {
                "id": ly.layer_id,
                "m": ly.gemm_m,
                "n": ly.gemm_n,
                "k": ly.gemm_k,
                "config": cfg.canonical() if cfg is not None else "dense",
                "weights_sparse": ly.weights_sparse,
                "acts_sparse": ly.acts_sparse,
                "weight": None,
            }
            if ly.weight is not None:
                filename = f"{ly.layer_id}.tasd1"
                mat = (
                    ly.weight
                    if cfg is None or cfg.is_dense
                    else approximate(ly.weight, cfg)
                )
                save_matrix(mat, tmp / filename)
                entry["weight"] = filename
            layers.append(entry)
        manifest = tmp / "manifest.json"
        with open(manifest, "w") as fh:
            json.dump(
                {
                    "name": workload.name,
                    "baseline_quality": workload.baseline_quality,
                    "layers": layers,
                },
                fh,
                indent=2,
            )
            fh.write("\n")
        return manifest


def evaluate_quality(oracle: QualityOracle, workload: Workload, assignment: Assignment) -> float:
    return oracle.evaluate(workload, assignment)
