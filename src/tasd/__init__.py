"""Structured-sparse series approximation of matrices, configuration
search for multi-layer GEMM workloads, and an analytical accelerator
cost model.

A matrix is approximated as an ordered sum of N:M structured terms, each
extracted greedily from the previous residual. The `search` module picks
per-layer series under a quality gate, and `hwmodel` prices the resulting
computation on a configurable structured-sparse accelerator.
"""

from ._kernels import HAS_NUMBA, active_backend
from .approxmm import (
    default_error_configs,
    error_sweep,
    matmul,
    relative_error,
    render_error_csv,
    spmm_term,
    tasd_matmul,
)
from .decomp import (
    Decomposition,
    DropMetrics,
    approximate,
    decompose,
    drop_metrics,
    extract_term,
    random_matrix,
    render_sweep_csv,
    sweep_synthetic,
)
from .errors import (
    BadHeader,
    BadMagic,
    CorruptIndices,
    DegenerateProduct,
    DimensionMismatch,
    EmptyCalibration,
    MissingCalibration,
    MissingStats,
    MixedM,
    NonFiniteEntry,
    NotCompliant,
    NotExpressible,
    OracleFailure,
    SchemaError,
    TasdError,
)
from .hwmodel import (
    CostReport,
    HwSpec,
    decomp_latency,
    expressible,
    gemm_cost,
    pattern_table,
    render_cost_csv,
    required_tasd_units,
    stc_m4,
    tile_n,
    vegeta_m8,
    workload_cost,
)
from .matrix import (
    DenseMatrix,
    NmCompressed,
    NmPattern,
    TasdConfig,
    config_of,
    decode,
    encode,
    is_compliant,
    load_matrix,
    new_dense,
    save_matrix,
    sparsity,
)
from .search import (
    Assignment,
    LayerStats,
    PatternMenu,
    assignment_from_json,
    assignment_to_json,
    dense_config,
    enumerate_configs,
    is_expressible,
    layer_wise_greedy,
    load_assignment,
    network_wise_search,
    profile_calibration,
    pseudo_density,
    ranked_pairs,
    save_assignment,
    select_activation_configs,
    sparsity_select,
)
from .workload import (
    LayerSpec,
    QualityOracle,
    Workload,
    evaluate_quality,
    load_calibration,
    load_workload,
    total_macs,
)

__version__ = "0.1.0"
