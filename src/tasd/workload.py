"""GEMM workload manifests and pluggable quality oracles.

A workload is an ordered list of layers (M, N, K dims plus an optional
weight matrix and calibration data) with a baseline quality score.
Quality itself is abstract: two built-in proxies (``MagnitudeOracle``,
retained weight magnitude; ``ErrorOracle``, calibration output error)
are normalized so a dense assignment scores exactly the baseline, and
``CommandOracle`` runs an external command in place of a real model
evaluation.
"""

from __future__ import annotations

import contextlib
import math
import os
import signal
import subprocess
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .approxmm import ProductError
from .decomp import RankedMatrix, decompose, drop_metrics
from .errors import (
    DegenerateProduct,
    DimensionMismatch,
    MissingCalibration,
    NonFiniteEntry,
    OracleFailure,
    SchemaError,
)
from .matrix import (
    Assignment, DenseMatrix, TasdConfig, _is_int, _is_number, load_matrix, read_json, save_matrix,
    write_json,
)


@dataclass(frozen=True)
class LayerSpec:
    layer_id: str
    gemm_m: int
    gemm_n: int
    gemm_k: int
    weight: DenseMatrix | None = None
    weights_sparse: bool = False
    acts_sparse: bool = False
    calibration_dir: str | None = None

    def __post_init__(self):
        if not isinstance(self.layer_id, str):
            raise SchemaError(f"layer id {self.layer_id!r} must be a string")
        if not all(_is_int(d) and d > 0 for d in (self.gemm_m, self.gemm_n, self.gemm_k)):
            raise SchemaError(f"layer {self.layer_id!r} needs positive integer GEMM dims")
        if not (isinstance(self.weights_sparse, bool) and isinstance(self.acts_sparse, bool)):
            raise SchemaError(f"layer {self.layer_id!r} sparse flags must be booleans")
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
        if not isinstance(self.name, str):
            raise SchemaError(f"workload name {self.name!r} must be a string")
        if not _is_number(self.baseline_quality):
            raise SchemaError(
                f"baseline_quality must be a finite number, got {self.baseline_quality!r}"
            )
        object.__setattr__(self, "baseline_quality", float(self.baseline_quality))
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


# ---------------------------------------------------------------------------
# manifest loading


def load_workload(manifest_path) -> Workload:
    """Read a workload manifest; matrix paths resolve relative to it."""
    manifest_path = Path(manifest_path)
    obj = read_json(manifest_path)
    if not isinstance(obj, dict):
        raise SchemaError(f"{manifest_path}: manifest must be a JSON object")
    try:
        name = obj["name"]
        baseline = obj["baseline_quality"]
        raw_layers = obj["layers"]
    except KeyError as exc:
        raise SchemaError(f"{manifest_path}: missing key {exc}") from exc
    if not isinstance(raw_layers, list) or not raw_layers:
        raise SchemaError(f"{manifest_path}: 'layers' must be a non-empty list")

    base_dir = manifest_path.parent
    layers = []
    for entry in raw_layers:
        if not isinstance(entry, dict):
            raise SchemaError(f"{manifest_path}: each layer must be an object")
        try:
            layer_id = entry["id"]
            dims = (entry["m"], entry["n"], entry["k"])
        except KeyError as exc:
            raise SchemaError(f"{manifest_path}: bad layer entry: {exc}") from exc
        # null stands for absent, as in the handoff manifest of CommandOracle
        weight_path = entry.get("weight")
        calibration_dir = entry.get("calibration_dir")
        if not all(p is None or isinstance(p, str) for p in (weight_path, calibration_dir)):
            raise SchemaError(f"{manifest_path}: weight and calibration_dir must be path strings")
        weight = None if weight_path is None else load_matrix(base_dir / weight_path)
        if calibration_dir is not None:
            calibration_dir = str(base_dir / calibration_dir)
        layers.append(
            LayerSpec(
                layer_id,
                *dims,
                weight,
                weights_sparse=entry.get("weights_sparse", False),
                acts_sparse=entry.get("acts_sparse", False),
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


class _Oracle:
    """Per-layer data an oracle keeps between evaluations, in one cache:
    each (layer, config) score of the two built-in proxies, each layer's
    ``ProductError`` for ``ErrorOracle``, and each weight as a
    ``RankedMatrix`` for ``CommandOracle``. The cache holds the data of one
    workload: evaluating another Workload object starts a fresh one.
    """

    def __init__(self):
        self._workload: Workload | None = None
        self._cache: dict = {}

    def _follow(self, workload: Workload) -> None:
        if workload is not self._workload:
            self._workload = workload
            self._cache = {}

    def _cached(self, key, make):
        """The value kept under ``key``, made by ``make()`` on first use."""
        if key not in self._cache:
            self._cache[key] = make()
        return self._cache[key]


class _ProxyOracle(_Oracle):
    """The two built-in proxies, which score a dense assignment as exactly
    baseline_quality. A proxy is a mean of per-layer scores, so each
    (layer, config) pair is scored once and kept as a float."""

    def _layer_scores(self, workload: Workload, assignment: Assignment, dense: float):
        self._follow(workload)
        scores = []
        for ly in workload.layers:
            cfg = assignment.get(ly.layer_id)
            if cfg is None or cfg.is_dense:
                scores.append(dense)
                continue
            if ly.weight is None:
                raise OracleFailure(f"layer {ly.layer_id!r} has no weight to score")
            key = ("score", ly.layer_id, cfg.canonical())
            scores.append(self._cached(key, lambda: self._score(ly, cfg)))
        return scores


class MagnitudeOracle(_ProxyOracle):
    """Baseline quality times the mean retained weight-magnitude fraction."""

    def evaluate(self, workload: Workload, assignment: Assignment) -> float:
        scores = self._layer_scores(workload, assignment, 1.0)
        return workload.baseline_quality * float(np.mean(scores))

    def _score(self, layer: LayerSpec, cfg: TasdConfig) -> float:
        return drop_metrics(decompose(layer.weight, cfg)).retained_magnitude_fraction


class ErrorOracle(_ProxyOracle):
    """Baseline quality times one minus the mean relative product error
    over each layer's calibration samples."""

    def evaluate(self, workload: Workload, assignment: Assignment) -> float:
        scores = self._layer_scores(workload, assignment, 0.0)
        return workload.baseline_quality * (1.0 - float(np.mean(scores)))

    def _score(self, layer: LayerSpec, cfg: TasdConfig) -> float:
        return float(np.mean(self._calibration(layer).errors(cfg)))

    def _calibration(self, layer: LayerSpec) -> ProductError:
        """The layer's weight against its calibration samples, side by side
        (K x total columns), loaded and multiplied once."""

        def load():
            samples = load_calibration(layer)
            widths = [sample.shape[1] for sample in samples]
            try:
                return ProductError(layer.weight, np.hstack(samples), widths)
            except DegenerateProduct as exc:
                raise OracleFailure(f"layer {layer.layer_id!r}: {exc}") from exc

        return self._cached(("calibration", layer.layer_id), load)


class CommandOracle(_Oracle):
    """Runs ``command`` (an argv list or one executable path) with the path
    of a handoff manifest appended, and returns the number it prints. It
    always scores the whole network.

    The command runs in a session of its own. With ``timeout`` (seconds)
    set, expiry kills its whole process group and raises ``OracleFailure``.
    """

    def __init__(self, command, timeout: float | None = None):
        if not command:
            raise ValueError("CommandOracle needs a command")
        if timeout is not None and not (math.isfinite(timeout) and timeout > 0):
            raise ValueError(f"oracle timeout must be a positive number of seconds, got {timeout}")
        super().__init__()
        self.command = command
        self.timeout = timeout

    def _ranked_weight(self, layer: LayerSpec) -> RankedMatrix:
        return self._cached(("ranked", layer.layer_id), lambda: RankedMatrix(layer.weight))

    def evaluate(self, workload: Workload, assignment: Assignment) -> float:
        self._follow(workload)
        with tempfile.TemporaryDirectory(prefix="tasd-oracle-") as tmp:
            manifest = _write_handoff(Path(tmp), workload, assignment, self._ranked_weight)
            command = self.command
            argv = [*command] if isinstance(command, (list, tuple)) else [str(command)]
            argv.append(str(manifest))
            try:
                proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                        text=True, start_new_session=True)
            except OSError as exc:
                raise OracleFailure(f"cannot run oracle command: {exc}") from exc
            try:
                stdout, stderr = proc.communicate(timeout=self.timeout)
            except subprocess.TimeoutExpired:
                raise OracleFailure(
                    f"oracle command ran past its {self.timeout:g} s timeout"
                ) from None
            finally:
                if proc.returncode is None:  # timed out or interrupted
                    with contextlib.suppress(ProcessLookupError):
                        os.killpg(proc.pid, signal.SIGKILL)
                    proc.communicate()
            if proc.returncode != 0:
                raise OracleFailure(
                    f"oracle command exited {proc.returncode}: {stderr.strip()}"
                )
            try:
                value = float(stdout.strip())
            except ValueError:
                raise OracleFailure(
                    f"oracle printed {stdout.strip()!r}, expected one number"
                ) from None
            if not math.isfinite(value):
                raise OracleFailure(f"oracle returned non-finite {value!r}")
            return value


def _write_handoff(tmp: Path, workload: Workload, assignment: Assignment, ranked_weight) -> Path:
    """Per-layer approximated dense weights, from ``ranked_weight(layer)``,
    plus a JSON index. Weight files are named by layer position, so no
    layer id can place one outside ``tmp``."""
    layers = []
    for li, ly in enumerate(workload.layers):
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
            filename = f"layer_{li:03d}.tasd1"
            dense = cfg is None or cfg.is_dense
            mat = ly.weight if dense else ranked_weight(ly).approximation(cfg)
            save_matrix(mat, tmp / filename)
            entry["weight"] = filename
        layers.append(entry)
    manifest = tmp / "manifest.json"
    write_json(
        {"name": workload.name, "baseline_quality": workload.baseline_quality, "layers": layers},
        manifest,
    )
    return manifest
