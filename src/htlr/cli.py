"""Benchmark command line: desk-scale experiment harness.

Three subcommands:

* ``bench-uniform``: build the hierarchical Tucker operator (optionally the
  conventional low-rank baseline too) on a uniform grid, time construction
  and matvec, and report storage counts and the sampled application error.
  ``--n`` must halve evenly down to a side of at most ``--leaf``, or be at
  most ``--leaf`` (one leaf).
* ``rank-explore``: compare interpolation, truncated SVD and sequentially
  truncated Tucker compression of kernel interaction blocks on neighbor and
  well-separated domain pairs.
* ``bench-quasi``: run the triangulated-grid pipeline over a sweep of
  oversampling ratios.

Output is CSV (default) or JSON, deterministic for a fixed seed except for
the wall-clock timing columns.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from functools import partial

import numpy as np

from . import oracles
from .blocks import build_tlr
from .grids import AdmissibilityRule, IndexBox, UniformGrid, _leaf_side
from .kernels import CoefficientFn, KernelSpec, QuadratureConfig, by_name, pairwise
from .operators import (
    BuildConfig,
    _exact_sample,
    _leaf_threshold,
    construct,
    construct_hmatrix,
    matvec,
    storage_report,
)
from .quasi import apply_pipeline, build_pipeline, load_mesh, structured_trimesh

TIMING_REPEATS = 3

# the measured columns of both benchmarks, after their run parameters
_MEASURED = [
    "t_construct", "t_apply", "dense_scalars", "factor_scalars", "core_scalars",
    "total_scalars", "resident_scalars", "bound", "e_apply_rand", "seed",
]

UNIFORM_HEADER = ["id", "variant", "d", "n", "kernel", "adm", "p", "leaf", *_MEASURED]

RANK_HEADER = ["id", "d", "kernel", "pair", "method", "p", "rel_fro_error"]

QUASI_HEADER = ["id", "variant", "d", "n_quasi", "rho", "m_side", "kernel", "adm",
                "p", "leaf", *_MEASURED]


class UsageError(Exception):
    pass


def quasi_test_field(points: np.ndarray) -> np.ndarray:
    """Smooth benchmark field sampled on the quasi-uniform points."""
    x1, x2 = points[:, 0], points[:, 1]
    return (
        1.0
        + 0.5 * np.exp(-((x1 - 0.3) ** 2) - (x2 - 0.6) ** 2)
        + np.sin(5.0 * x1 * x2)
    )


def kernel_for(name: str, d: int) -> KernelSpec:
    """The named kernel in dimension d; a kernel that does not exist there
    is a usage error."""
    try:
        return by_name(name, d)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def config_for(args, kernel: KernelSpec) -> BuildConfig:
    """The build configuration of a benchmark run; a negative seed, a rank,
    leaf side or eta the build rejects, or an eta with the weak rule, is a
    usage error."""
    if args.seed < 0:
        raise UsageError("--seed must be non-negative")
    if args.adm == "weak" and args.eta is not None:
        raise UsageError("--eta applies to --adm strong only")
    try:
        if args.adm == "weak":
            rule = AdmissibilityRule.weak()
        else:
            eta = args.eta if args.eta is not None else float(np.sqrt(args.dim))
            rule = AdmissibilityRule.strong(eta)
        return BuildConfig(
            rank=args.p, leaf_side=args.leaf, rule=rule, kernel=kernel,
            coeff=CoefficientFn.constant(0.0), quadrature=QuadratureConfig(),
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _best_of(fn):
    best = np.inf
    for _ in range(TIMING_REPEATS):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return result, best


def _measure(builds, apply, u, exact_rows, seed):
    """(built, t_construct, t_apply, error) per build, in order: each build
    and its apply to `u` timed best of :data:`TIMING_REPEATS`, and the
    relative l2 error of the timed product against the exact rows.  The rows
    are sampled once for every build, at most 1000 of them without
    replacement by the generator `seed`, and `exact_rows` evaluates them
    once."""
    sample, exact, denom = _exact_sample(exact_rows, u, min(1000, len(u)), seed)
    for build in builds:
        built, t_construct = _best_of(build)
        out, t_apply = _best_of(lambda: apply(built, u))
        yield built, t_construct, t_apply, float(np.linalg.norm(out[sample] - exact) / denom)


def _storage_columns(op) -> dict:
    rep = storage_report(op)
    return {
        "dense_scalars": rep.dense_scalars, "factor_scalars": rep.factor_scalars,
        "core_scalars": rep.core_scalars, "total_scalars": rep.total_scalars,
        "resident_scalars": rep.resident_scalars, "bound": rep.theoretical_bound,
    }


def cmd_bench_uniform(args) -> list[dict]:
    kernel = kernel_for(args.kernel, args.dim)
    cfg = config_for(args, kernel)
    try:
        grid = UniformGrid(args.dim, args.n)
        # n must halve evenly down to the side the build splits above
        _leaf_side(grid.n, _leaf_threshold(cfg))
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    u = np.random.default_rng((args.seed, 0)).standard_normal(grid.num_points)
    exact = oracles.exact_row_evaluator(kernel, cfg.coeff, grid, cfg.quadrature)
    builders = {"htlr": construct}
    if args.baseline:
        builders["hmatrix"] = construct_hmatrix
    measured = _measure([partial(build, cfg, grid) for build in builders.values()],
                        matvec, u, exact, (args.seed, 1))
    base = {
        "id": f"u-d{args.dim}-{args.kernel}-n{args.n}-{args.adm}"
              f"-p{args.p}-l{args.leaf}-s{args.seed}",
        "d": args.dim, "n": args.n, "kernel": args.kernel,
        "adm": args.adm, "p": args.p, "leaf": args.leaf, "seed": args.seed,
    }
    return [
        {**base, "variant": variant, "t_construct": t_con, "t_apply": t_apply,
         **_storage_columns(op), "e_apply_rand": err}
        for variant, (op, t_con, t_apply, err) in zip(builders, measured)
    ]


def interp_block_error(kernel, grid, tau, sigma, rank, dense=None):
    """Relative Frobenius error of the tensor Chebyshev interpolant of the
    kernel matrix between two index boxes of `grid` (quadrature weight 1)."""
    if dense is None:
        dense = pairwise(kernel, grid.points(tau), grid.points(sigma))
    block = build_tlr(kernel, grid, tau, sigma, rank, 1.0)
    return oracles.rel_fro_error(block.materialize(), dense)


def study_domains(d: int):
    """The grid and the neighbor / well-separated box pairs of the rank
    study: three adjacent boxes of side 0.25 along the first axis, with 32
    points per side in 2D and 16 in 3D."""
    side = 32 if d == 2 else 16
    grid = UniformGrid(d, 4 * side)

    def box(i):
        return IndexBox(((i * side, (i + 1) * side),) + ((0, side),) * (d - 1))

    return grid, {"neighbor": (box(0), box(1)), "wellsep": (box(0), box(2))}


def rank_explore_errors(kernel_name: str, d: int, ranks) -> list[dict]:
    """Error-vs-rank curves for the three compression routes on both domain
    pairs; one dict per (pair, method, rank)."""
    kernel = kernel_for(kernel_name, d)
    grid, pairs = study_domains(d)
    rows = []
    run_id = f"r-d{d}-{kernel_name}"
    for pair_name, (tau, sigma) in pairs.items():
        dense = pairwise(kernel, grid.points(tau), grid.points(sigma))
        sing = np.linalg.svd(dense, compute_uv=False)
        norm = float(np.linalg.norm(dense))
        tens = dense.reshape(tau.sizes + sigma.sizes, order="F")
        for rank in ranks:
            e_interp = interp_block_error(kernel, grid, tau, sigma, rank, dense)
            e_svd = float(np.sqrt(np.sum(sing[rank**d:] ** 2))) / norm
            st = oracles.sthosvd(tens, (rank,) * (2 * d))
            e_st = oracles.rel_fro_error(
                st.reconstruct().reshape(dense.shape, order="F"), dense
            )
            for method, err in (
                ("interp", e_interp), ("svd", e_svd), ("sthosvd", e_st)
            ):
                rows.append({
                    "id": run_id, "d": d, "kernel": kernel_name,
                    "pair": pair_name, "method": method, "p": rank,
                    "rel_fro_error": err,
                })
    return rows


def cmd_rank_explore(args) -> list[dict]:
    _, pairs = study_domains(args.dim)
    side = pairs["neighbor"][0].sizes[0]  # points per box side
    max_rank = args.p if args.p is not None else side // 2
    if max_rank < 1:
        raise UsageError("--p must be at least 1")
    if max_rank > side:
        raise UsageError(f"--p must be at most {side} for dimension {args.dim}")
    return rank_explore_errors(args.kernel, args.dim, range(1, max_rank + 1))


def cmd_bench_quasi(args) -> list[dict]:
    if args.dim != 2:
        raise UsageError("the quasi-uniform pipeline is two-dimensional")
    kernel = kernel_for(args.kernel, 2)
    cfg = config_for(args, kernel)
    rhos = args.rho if args.rho else [2.0]
    if not all(np.isfinite(rho) and rho > 0 for rho in rhos):
        raise UsageError("--rho must be finite and positive")
    if (args.mesh is None) == (args.n is None):
        raise UsageError("bench-quasi takes --n (number of triangles) or --mesh, not both")
    if args.mesh is not None:
        mesh = load_mesh(args.mesh)
    else:
        if args.n < 2:
            raise UsageError("--n must be at least 2 triangles")
        k = int(round(np.sqrt(args.n / 2.0)))
        if 2 * k * k != args.n:
            raise UsageError(f"--n {args.n} is not of the form 2*k^2 for a structured mesh")
        mesh = structured_trimesh(k)
    u = quasi_test_field(mesh.centroids)
    exact = oracles.quasi_row_evaluator(kernel, cfg.coeff, mesh, cfg.quadrature)
    measured = _measure([partial(build_pipeline, mesh, cfg, rho) for rho in rhos],
                        apply_pipeline, u, exact, (args.seed, 2))
    n_quasi = mesh.num_triangles
    return [
        {"id": f"q-{args.kernel}-N{n_quasi}-rho{rho:g}-{args.adm}"
               f"-p{args.p}-l{args.leaf}-s{args.seed}",
         "variant": "htlr-quasi", "d": 2, "n_quasi": n_quasi,
         "rho": pipe.rho, "m_side": pipe.m_side, "kernel": args.kernel,
         "adm": args.adm, "p": args.p, "leaf": args.leaf,
         "t_construct": t_con, "t_apply": t_apply,
         **_storage_columns(pipe.op), "e_apply_rand": err, "seed": args.seed}
        for rho, (pipe, t_con, t_apply, err) in zip(rhos, measured)
    ]


def _write_rows(rows, header, args) -> None:
    if args.format == "json":
        text = json.dumps(rows, indent=2, default=float) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=header)
        writer.writeheader()
        writer.writerows(rows)
        text = buf.getvalue()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="htlr-bench",
        description="Benchmarks for hierarchical Tucker kernel compression.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    pu = sub.add_parser("bench-uniform", help="uniform-grid benchmark")
    pr = sub.add_parser("rank-explore", help="block compression rank study")
    pq = sub.add_parser("bench-quasi", help="triangulated-grid pipeline benchmark")
    for p in (pu, pr, pq):
        p.add_argument("--dim", type=int, choices=(2, 3), default=2)
        p.add_argument("--kernel", choices=("gaussian", "slp2d", "slp3d"),
                       default="gaussian")
        p.add_argument("--out", default=None)
        p.add_argument("--format", choices=("csv", "json"), default="csv")
    for p in (pu, pq):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--p", type=int, default=8, help="Tucker rank per mode")
        p.add_argument("--leaf", type=int, default=16, help="largest leaf box side")
        p.add_argument("--adm", choices=("weak", "strong"), default="weak")
        p.add_argument("--eta", type=float, default=None,
                       help="strong-admissibility parameter (default sqrt(d))")

    pu.add_argument("--n", type=int, required=True,
                    help="points per direction; halving it evenly must reach "
                         "a side of at most --leaf")
    pu.add_argument("--baseline", action="store_true",
                    help="also run the conventional low-rank baseline")

    pr.add_argument("--p", type=int, default=None,
                    help="largest rank of the sweep (default: half the box side)")

    pq.add_argument("--n", type=int, default=None,
                    help="number of triangles (2*k^2) for the structured mesh")
    pq.add_argument("--mesh", default=None, help="mesh file to load instead")
    pq.add_argument("--rho", type=float, action="append", default=None,
                    help="oversampling ratio; repeat for a sweep")

    return parser


_COMMANDS = {
    "bench-uniform": (cmd_bench_uniform, UNIFORM_HEADER),
    "rank-explore": (cmd_rank_explore, RANK_HEADER),
    "bench-quasi": (cmd_bench_quasi, QUASI_HEADER),
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    run, header = _COMMANDS[args.command]
    try:
        _write_rows(run(args), header, args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
