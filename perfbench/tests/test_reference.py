"""The circulant reference reproduces the dense system matrix."""

import numpy as np
import pytest

import htlr
from reference import CirculantReference


def _linear(pts):
    return 1e-3 * (1.0 + pts[:, 0])


CASES = [
    (2, 32, htlr.gaussian(np.sqrt(2.0)), htlr.CoefficientFn.constant(0.0)),
    (2, 32, htlr.slp_2d(), htlr.CoefficientFn(_linear)),
    (2, 17, htlr.slp_2d(), htlr.CoefficientFn.constant(0.5)),
    (3, 16, htlr.gaussian(np.sqrt(3.0)), htlr.CoefficientFn(_linear)),
    (3, 12, htlr.slp_3d(), htlr.CoefficientFn.constant(0.0)),
]


@pytest.mark.parametrize("d,n,kernel,coeff", CASES)
def test_matches_dense_assembly(d, n, kernel, coeff):
    cfg = htlr.BuildConfig(
        rank=4, leaf_side=4, rule=htlr.AdmissibilityRule.weak(),
        kernel=kernel, coeff=coeff,
    )
    grid = htlr.UniformGrid(d, n)
    dense = htlr.dense_assemble(kernel, coeff, grid, cfg.quadrature).matrix
    u = np.random.default_rng(n).standard_normal(grid.num_points)
    exact = dense @ u
    got = CirculantReference(cfg, grid).matvec(u)
    assert np.linalg.norm(got - exact) / np.linalg.norm(exact) <= 1e-12
