"""Hierarchical Tucker low-rank compression of kernel matrices.

Compresses the dense system matrix of a non-oscillatory kernel on a uniform
tensor grid into a hierarchy of Tucker-format blocks with linear storage,
applies it in linear time through bases nested across tree levels, and
extends the same machinery to
quasi-uniform (triangulated) grids through sparse area-overlap transfers.
"""

from .blocks import (
    DenseBlock,
    TuckerBlock,
    build_dense,
    build_lowrank,
    build_tlr,
    lowrank_apply,
    materialize,
    tlr_apply,
)
from .chebyshev import (
    BoundParams,
    ChebGrid1D,
    asymptotic_error_bound,
    cheb_points,
    core_tensor,
    factor_matrix,
    lebesgue_constant,
)
from .grids import (
    AdmissibilityRule,
    BlockClusterTree,
    ClusterTree,
    DomainBox,
    IndexBox,
    UniformGrid,
    build_block_cluster_tree,
    build_cluster_tree,
    domain_of,
    is_admissible,
)
from .kernels import (
    CoefficientFn,
    KernelSpec,
    QuadratureConfig,
    custom,
    diagonal_entry,
    gaussian,
    pairwise,
    slp_2d,
    slp_3d,
)
from .operators import (
    BuildConfig,
    HTLRMatrix,
    StorageReport,
    construct,
    construct_hmatrix,
    estimate_rel_error_random,
    matvec,
    operation_counts,
    storage_report,
    weak_storage_bound,
)
from .oracles import (
    DenseOperator,
    dense_assemble,
    exact_row_evaluator,
    quasi_row_evaluator,
    rel_fro_error,
    sthosvd,
)
from .quasi import (
    QuasiPipeline,
    SparseInterpMatrix,
    TriMesh,
    apply_pipeline,
    build_pipeline,
    load_mesh,
    overlap_area,
    quasi_to_uniform,
    save_mesh,
    structured_trimesh,
    uniform_to_quasi,
)
from .tensor import (
    QRResult,
    contract,
    mode_product,
    multi_mode_apply,
    qr,
    reshape,
    tensor_to_vec,
    vec_to_tensor,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
