"""resident_bytes counts each owning buffer once."""

from types import SimpleNamespace

import numpy as np

import htlr
from measures import resident_bytes


def test_views_and_repeats_count_their_buffer_once():
    big = np.ones((100, 100))
    other = np.ones(7)
    holder = SimpleNamespace(
        payloads=[SimpleNamespace(matrix=big), SimpleNamespace(matrix=big),
                  SimpleNamespace(matrix=big[:10, ::2])],
        extra={"v": other, "again": (other, other[1:])},
    )
    assert resident_bytes(holder) == big.nbytes + other.nbytes


def test_shared_payloads_are_resident_below_logical():
    cfg = htlr.BuildConfig(
        rank=8, leaf_side=16, rule=htlr.AdmissibilityRule.weak(),
        kernel=htlr.gaussian(np.sqrt(2.0)), coeff=htlr.CoefficientFn.constant(0.0),
    )
    op = htlr.construct(cfg, htlr.UniformGrid(2, 64))
    logical = 8 * htlr.storage_report(op).total_scalars
    assert resident_bytes(op) == logical

    dense = [i for i, b in enumerate(op.payloads) if isinstance(b, htlr.DenseBlock)]
    shared = op.payloads[dense[0]].matrix
    for i in dense:
        op.payloads[i] = htlr.DenseBlock(matrix=shared)
    assert htlr.storage_report(op).total_scalars * 8 == logical
    assert resident_bytes(op) == logical - (len(dense) - 1) * shared.nbytes
