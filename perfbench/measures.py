"""Quantities the benchmark computes from a built operator or from samples.

Everything here reads public attributes of the objects the library returns
and raises AttributeError when one is missing; the caller then reports the
quantity as absent instead of failing the run.
"""

from __future__ import annotations

import math
import types

import numpy as np

_OPAQUE = (
    str, bytes, int, float, complex, bool, type(None), type, types.ModuleType,
    types.FunctionType, types.BuiltinFunctionType, types.MethodType,
)


def _owner(a: np.ndarray) -> np.ndarray:
    """The array that owns the memory behind `a` (a itself if not a view)."""
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


def resident_bytes(root) -> int:
    """Bytes of the distinct array buffers reachable from `root`.

    Views and repeated references count their owning buffer once, so shared
    payloads count once however many leaves hold them.
    """
    seen: set[int] = set()
    owners: dict[int, np.ndarray] = {}
    stack = [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, _OPAQUE):
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            base = _owner(obj)
            owners[id(base)] = base
        elif isinstance(obj, dict):
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
        elif hasattr(obj, "__dict__"):
            stack.extend(vars(obj).values())
    return sum(a.nbytes for a in owners.values())


def _tucker_cost(block) -> tuple[int, int]:
    """Flops of applying a Tucker block mode by mode: the source factors,
    the core contraction, then the target factors."""
    core = block.core
    d = len(block.v_factors)
    shape = list(block.col_sizes)
    flops = 0
    for dim, fac in enumerate(block.v_factors):
        if fac is not None:
            flops += 2 * fac.shape[1] * math.prod(shape)
            shape[dim] = fac.shape[1]
    flops += 2 * core.size
    shape = list(core.shape[:d])
    for dim, fac in enumerate(block.u_factors):
        if fac is not None:
            flops += 2 * fac.shape[0] * math.prod(shape)
            shape[dim] = fac.shape[0]
    arrays = [core] + [f for f in block.u_factors + block.v_factors if f is not None]
    return flops, sum(a.nbytes for a in arrays)


def matvec_cost(op) -> tuple[int, int]:
    """Flops and bytes of one matvec, computed from the payload array sizes.

    Bytes count every payload array read once per leaf plus the source and
    target segments; cache behaviour is not modelled.
    """
    flops = nbytes = 0
    for block in op.payloads:
        rows, cols = block.shape
        if hasattr(block, "matrix"):
            f, b = 2 * block.matrix.size, block.matrix.nbytes
        elif hasattr(block, "core"):
            f, b = _tucker_cost(block)
        else:
            arrays = (block.u, block.g, block.v)
            f, b = 2 * sum(a.size for a in arrays), sum(a.nbytes for a in arrays)
        flops += f
        nbytes += b + 8 * (rows + cols)
    return flops, nbytes


def translation_classes(op) -> int:
    """Leaves that differ only by a shift on the grid: the number of distinct
    (target box sizes, source box sizes, source minus target offset)."""
    keys = set()
    for leaf in op.block_tree.leaves:
        tau, sigma = leaf.tau.box.ranges, leaf.sigma.box.ranges
        keys.add((
            tuple(hi - lo for lo, hi in tau),
            tuple(hi - lo for lo, hi in sigma),
            tuple(s[0] - t[0] for t, s in zip(tau, sigma)),
        ))
    return len(keys)


def tail(samples) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it) of the highest order statistic
    with at least ten samples above it, never below the median.

    Under 21 samples no percentile above the median has ten samples beyond
    it, and the tail reads as the median.
    """
    s = np.sort(np.asarray(samples, dtype=np.float64))
    n = s.size
    k = max(n - 11, n // 2)
    return float(s[k]), 100.0 * (k + 1) / n, n - 1 - k
