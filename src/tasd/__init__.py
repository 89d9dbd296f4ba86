"""Structured-sparse series approximation of matrices, configuration
search for multi-layer GEMM workloads, and an analytical accelerator
cost model.

A matrix is approximated as an ordered sum of N:M structured terms, each
extracted greedily from the previous residual. The `search` module picks
per-layer series under a quality gate, and `hwmodel` prices the resulting
computation on a configurable structured-sparse accelerator.
"""

from .approxmm import (
    error_sweep,
    matmul,
    relative_error,
    render_error_csv,
    tasd_matmul,
)
from .decomp import (
    Decomposition,
    DropMetrics,
    RankedMatrix,
    approximate,
    decompose,
    drop_metrics,
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
    gemm_cost,
    pattern_table,
    render_cost_csv,
    required_tasd_units,
    stc_m4,
    vegeta_m8,
    workload_cost,
)
from .matrix import (
    Assignment,
    DenseMatrix,
    NmCompressed,
    NmPattern,
    PatternMenu,
    TasdConfig,
    config_of,
    decode,
    dense_config,
    encode,
    enumerate_configs,
    extract_term,
    is_expressible,
    load_matrix,
    new_dense,
    save_matrix,
    sparsity,
)
from .search import (
    layer_wise_greedy,
    load_assignment,
    network_wise_search,
    pseudo_density,
    ranked_pairs,
    sample_sparsities,
    save_assignment,
    select_activation_configs,
    sparsity_select,
)
from .workload import (
    CommandOracle,
    ErrorOracle,
    LayerSpec,
    MagnitudeOracle,
    Workload,
    load_calibration,
    load_workload,
)

__version__ = "0.1.0"

# read by perfbench/run.py for its environment line: the kernels have one
# implementation, and numba is never used
HAS_NUMBA = False


def active_backend() -> str:
    return "numpy"
