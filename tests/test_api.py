"""The public surface of the package: widening or narrowing it is a
deliberate, one-line change here."""

import htlr

PUBLIC = [
    "AdmissibilityRule", "BlockClusterTree", "BoundParams", "BuildConfig",
    "ChebGrid1D", "ClusterTree", "CoefficientFn", "DenseBlock", "DenseOperator",
    "DomainBox", "HTLRMatrix", "IndexBox", "KernelSpec", "QRResult",
    "QuadratureConfig", "QuasiPipeline", "SparseInterpMatrix", "StorageReport",
    "TriMesh", "TuckerBlock", "UniformGrid", "apply_pipeline",
    "asymptotic_error_bound", "blocks", "build_block_cluster_tree",
    "build_cluster_tree", "build_dense", "build_lowrank", "build_pipeline",
    "build_tlr", "cheb_points", "chebyshev", "construct", "construct_hmatrix",
    "contract", "core_tensor", "custom", "dense_assemble", "diagonal_entry",
    "domain_of", "estimate_rel_error_random", "exact_row_evaluator",
    "factor_matrix", "gaussian", "grids", "is_admissible", "kernels",
    "lebesgue_constant", "load_mesh", "lowrank_apply",
    "materialize", "matvec", "mode_product", "multi_mode_apply",
    "operation_counts", "operators", "oracles", "overlap_area", "pairwise",
    "qr", "quasi", "quasi_row_evaluator", "quasi_to_uniform", "rel_fro_error",
    "reshape", "save_mesh", "slp_2d", "slp_3d", "sthosvd",
    "storage_report", "structured_trimesh", "tensor",
    "tensor_to_vec", "tlr_apply", "uniform_to_quasi", "vec_to_tensor",
    "weak_storage_bound",
]


def test_public_names():
    assert htlr.__all__ == PUBLIC
