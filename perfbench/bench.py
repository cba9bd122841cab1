"""One benchmark run of one workload: set-up, closed loop, checks, metrics."""

from __future__ import annotations

import gc
import resource
import statistics
import time
from pathlib import Path

import numpy as np

import htlr
import measures
import workloads as wl
from reference import CirculantReference
from spans import Tracer

OUT = Path(__file__).resolve().parent / "out"
#: CG iterations after which a solve counts as failed
CG_MAXITER = 300


_CAL_RNG = np.random.default_rng(0)
_CAL_SQUARE = _CAL_RNG.random((256, 256))
_CAL_VEC = _CAL_RNG.random(256)
_CAL_FACTOR = _CAL_RNG.random((8, 16))
_CAL_TENSOR = _CAL_RNG.random((16, 16))


def calibration_s() -> float:
    """Seconds of a fixed mix of work, timed next to every application:
    an interpreter loop, small tensordot/moveaxis calls and dense matvecs,
    ~20 ms on a 2 GHz two-vCPU VM.

    The machine this benchmark was tuned on runs the same code up to ~1.6x
    faster or slower for stretches of seconds to minutes, whatever the
    benchmark does.  Dividing each application time by the calibration
    around it ("cal" units) cancels most of that drift, which raw
    milliseconds cannot.  Each part alone tracks the drift less well than
    the mix: the pure loop under-corrects, the small numpy calls over-correct.
    """
    start = time.perf_counter()
    total = 0
    for i in range(50_000):
        total += i * i
    for _ in range(750):
        np.moveaxis(np.tensordot(_CAL_FACTOR, _CAL_TENSOR, axes=([1], [0])), 0, 0)
    for _ in range(150):
        _CAL_SQUARE @ _CAL_VEC
    return time.perf_counter() - start


def _pairwise_evals(args, kwargs) -> int:
    """Kernel evaluations of one htlr.pairwise(kernel, xpts, ypts) call."""
    xs = args[1] if len(args) > 1 else kwargs["xpts"]
    ys = args[2] if len(args) > 2 else kwargs["ypts"]
    return len(xs) * len(ys)


class Tally:
    """Operations attempted and failed, with the reason of each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


def cg(apply, b, rtol, maxiter, stop):
    """Conjugate gradients from x = 0; returns (x, iterations, converged).
    `stop()` is polled before each matvec and ends the solve unconverged."""
    x = np.zeros_like(b)
    r = b.copy()
    p = r.copy()
    rs = float(r @ r)
    target = rtol * float(np.linalg.norm(b))
    iters = 0
    while np.sqrt(rs) > target:
        if iters >= maxiter or stop():
            return x, iters, False
        q = apply(p)
        alpha = rs / float(p @ q)
        x += alpha * p
        r -= alpha * q
        rs_new = float(r @ r)
        p = r + (rs_new / rs) * p
        rs = rs_new
        iters += 1
    return x, iters, True


class Bench:
    """One workload run: set-up, closed loop, checks and metrics."""

    def __init__(self, w, seed: int, seconds: float, trace: bool):
        self.w, self.seed, self.seconds, self.trace = w, seed, seconds, trace
        self.tally = Tally()
        self.inputs = wl.make_inputs(w, seed)
        self.tracer = (
            Tracer(htlr, counters={"kernels.pairwise": _pairwise_evals}) if trace else None
        )
        self.samples: list[float] = []  # seconds per application
        self.traced_samples: list[float] = []
        self.cal_samples: list[float] = []  # calibration before each sample, untraced runs
        self.errors: dict[int, tuple[float, float]] = {}  # pool index -> |f-e|^2, |e|^2
        self.solves: list[tuple[float, int]] = []  # (seconds, iterations)
        self.lines: list[str] = []

    # -- set-up -----------------------------------------------------------

    def build(self):
        """Set up `builds` times.  A traced run sets up three times: untraced
        to warm the process (the first set-up in a process pays for fresh
        pages), traced, and untraced again to compare against."""
        w = self.w
        times, traced_time = [], None
        built = None
        phases = [False, True, False] if self.trace else [False] * w.builds
        for traced in phases:
            built = None
            gc.collect()
            if traced:
                self.build_lo = self.tracer.mark()
                self.tracer.install()
            start = time.perf_counter()
            try:
                built = wl.setup(w, self.inputs)
            except Exception as exc:  # report the failed operation, then stop
                self.tally.record(False, f"setup raised {exc!r}")
                return None
            finally:
                elapsed = time.perf_counter() - start
                if traced:
                    self.tracer.uninstall()
                    self.build_hi = self.tracer.mark()
            self.tally.record(True, "setup")
            if traced:
                traced_time = elapsed
            else:
                times.append(elapsed)
        self.setup_times, self.traced_setup = times, traced_time
        return built

    def references(self, built):
        """Exact outputs of the pool vectors: the circulant reference on the
        uniform grid, sampled rows of the row oracle on the mesh."""
        w, inp = self.w, self.inputs
        if w.quasi:
            rows_fn = htlr.quasi_row_evaluator(
                inp.cfg.kernel, inp.cfg.coeff, inp.mesh, inp.cfg.quadrature
            )
            self.expected = [rows_fn(inp.rows, v) for v in inp.vectors]
            self.ref = CirculantReference(inp.cfg, htlr.UniformGrid(2, built.m_side))
        else:
            self.ref = CirculantReference(inp.cfg, inp.grid)
            self.expected = [self.ref.matvec(v) for v in inp.vectors]

    # -- the closed loop ----------------------------------------------------

    def timed_apply(self, built, u, traced: bool):
        if traced:
            self.tracer.install()
        elif not self.trace:
            self.cal_samples.append(calibration_s())
        start = time.perf_counter()
        try:
            out = wl.apply(self.w, built, u)
        finally:
            elapsed = time.perf_counter() - start
            if traced:
                self.tracer.uninstall()
        (self.traced_samples if traced else self.samples).append(elapsed)
        return out

    def check_output(self, out, k: int) -> bool:
        """Gate the relative error of an application of pool vector k
        against the reference; a non-finite output fails."""
        got = out[self.inputs.rows] if self.w.quasi else out
        exp = self.expected[k]
        if not np.all(np.isfinite(out)):
            self.errors[k] = (float("inf"), 1.0)
            return False
        diff, norm = float(np.sum((got - exp) ** 2)), float(np.sum(exp**2))
        self.errors.setdefault(k, (diff, norm))
        return np.sqrt(diff / norm) <= self.w.gate

    def rel_err(self) -> float:
        """Relative error over all distinct checked inputs together, which
        varies less with the seed than any single input's error."""
        diff = sum(d for d, _ in self.errors.values())
        norm = sum(n for _, n in self.errors.values())
        return float(np.sqrt(diff / norm))

    def stream(self, built):
        pool = self.inputs.vectors
        deadline = time.perf_counter() + self.seconds
        i = 0
        while True:
            k = i % len(pool)
            traced = self.trace and i % 2 == 1
            try:
                out = self.timed_apply(built, pool[k], traced)
            except Exception as exc:  # report the failed operation, then stop
                self.tally.record(False, f"apply raised {exc!r}")
                return
            self.tally.record(self.check_output(out, k), f"apply {i}: error above gate")
            i += 1
            # a traced run needs one traced and one untraced application
            if time.perf_counter() >= deadline and i >= 2:
                return

    def solve(self, built):
        """CG solves on the pool right-hand sides.  The first solve always
        completes; later ones stop at the deadline."""
        pool = self.inputs.vectors
        count = [0]

        def apply(p):
            traced = self.trace and count[0] % 2 == 1
            count[0] += 1
            q = self.timed_apply(built, p, traced)
            if not np.all(np.isfinite(q)):
                raise FloatingPointError("non-finite matvec output")
            self.tally.record(True, "cg matvec")
            return q

        try:
            for k, v in enumerate(pool):  # accuracy of plain applications first
                out = wl.apply(self.w, built, v)
                self.tally.record(self.check_output(out, k), f"check {k}: error above gate")
        except Exception as exc:  # report the failed operation, then stop
            self.tally.record(False, f"check raised {exc!r}")
            return
        deadline = time.perf_counter() + self.seconds
        j = 0
        while True:
            b = pool[j % len(pool)]
            first = j == 0
            start = time.perf_counter()
            try:
                x, iters, converged = cg(
                    apply, b, wl.CG_RTOL, CG_MAXITER,
                    (lambda: False) if first else (lambda: time.perf_counter() >= deadline),
                )
            except Exception as exc:  # report the failed operation, then stop
                self.tally.record(False, f"solve {j} raised {exc!r}")
                return
            elapsed = time.perf_counter() - start
            if converged:
                residual = float(np.linalg.norm(b - self.ref.matvec(x)) / np.linalg.norm(b))
                self.tally.record(
                    residual <= 10 * wl.CG_RTOL,
                    f"solve {j}: true residual {residual:.2e} above {10 * wl.CG_RTOL:.0e}",
                )
                self.solves.append((elapsed, iters))
            elif first or iters >= CG_MAXITER:
                self.tally.record(False, f"solve {j}: no convergence in {iters} iterations")
            j += 1
            if time.perf_counter() >= deadline:
                return

    # -- metrics ------------------------------------------------------------

    def operator_metrics(self, built) -> dict:
        op = wl.operator_of(self.w, built)
        return {
            "stored_mscalars": (htlr.storage_report(op).total_scalars / 1e6, "Mscalar"),
            "resident_mb": (measures.resident_bytes(built) / 1e6, "MB"),
        }

    def end_to_end(self, built) -> dict:
        samples = np.array(self.samples)
        cal = np.array(self.cal_samples)
        # each application sits between two calibrations; the last one has
        # only the one before it
        ratio = samples / (0.5 * (cal + np.append(cal[1:], cal[-1])))
        tail_cal, pct, beyond = measures.tail(ratio)
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        metrics = {
            "setup_s": (statistics.median(self.setup_times), "s"),
            "matvec_p50_cal": (float(np.median(ratio)), "cal"),
            "matvec_tail_cal": (tail_cal, "cal"),
            "rel_err": (self.rel_err(), "ratio"),
            **self.operator_metrics(built),
            "peak_rss_mb": (rss, "MB"),
        }
        tail_ms = 1e3 * measures.tail(samples)[0]
        self.lines += [
            f"setup: median of {len(self.setup_times)} set-ups",
            f"matvec: {samples.size} applications, tail = p{pct:.0f} with {beyond} "
            "samples beyond it",
            f"  matvec_ms_p50 {1e3 * np.median(samples):.4f} ms, matvec_ms_tail "
            f"{tail_ms:.4f} ms; cal = {1e3 * np.median(cal):.4f} ms median",
        ]
        if self.solves:
            times = [s for s, _ in self.solves]
            iters = [i for _, i in self.solves]
            self.lines.append(
                f"solve_s {statistics.median(times):.4f} s (median of {len(times)} "
                f"completed CG solves to rtol {wl.CG_RTOL:g}, iterations {iters})"
            )
        return metrics

    def per_layer(self, built) -> dict:
        w = self.w
        build = self.tracer.summary(self.build_lo, self.build_hi)
        loop = self.tracer.summary(self.build_hi)
        empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "work": 0.0}
        matvecs = loop.get("operators.matvec", empty)["calls"]
        m, span_of = {}, {}

        def from_span(key, span, phase, field, unit, per_matvec=False):
            value = phase.get(span, empty)[field]
            m[key] = (value / max(matvecs, 1) if per_matvec else value, unit)
            span_of[key] = span

        for span in (
            "chebyshev.factor_matrix", "chebyshev.core_tensor", "blocks.build_tlr",
            "tensor.qr", "kernels.diagonal_entry", "blocks.build_dense",
        ):
            from_span(f"{span}_calls", span, build, "calls", "count")
            from_span(f"{span}_s", span, build, "total_s", "s")
        from_span("kernels.pairwise_evals", "kernels.pairwise", build, "work", "count")
        from_span("kernels.pairwise_s", "kernels.pairwise", build, "total_s", "s")
        from_span("grids.cluster_tree_s", "grids.build_cluster_tree", build, "total_s", "s")
        from_span("grids.block_tree_s", "grids.build_block_cluster_tree", build, "total_s", "s")
        for span in ("blocks.tlr_apply", "tensor.multi_mode_apply"):
            from_span(f"{span}_calls_per_matvec", span, loop, "calls", "count", True)
            from_span(f"{span}_s_per_matvec", span, loop, "total_s", "s", True)
        from_span("operators.matvec_self_s", "operators.matvec", loop, "self_s", "s", True)
        # a span whose function htlr no longer exports is a vanished boundary
        absent = [key for key, span in span_of.items() if span not in self.tracer.names]
        for key in absent:
            del m[key]

        op = wl.operator_of(w, built)
        try:
            flops, nbytes = measures.matvec_cost(op)
            m["operators.matvec_flops"] = (flops, "count")
            m["operators.matvec_bytes"] = (nbytes, "B")
        except AttributeError:
            absent += ["operators.matvec_flops", "operators.matvec_bytes"]
        try:
            counts = htlr.operation_counts(op)
            m["grids.leaves_admissible"] = (counts["compressed_leaves"], "count")
            m["grids.leaves_dense"] = (counts["dense_leaves"], "count")
        except (AttributeError, KeyError):
            absent += ["grids.leaves_admissible", "grids.leaves_dense"]
        try:
            classes = measures.translation_classes(op)
            built_leaves = sum(build.get(span, empty)["calls"]
                               for span in ("blocks.build_tlr", "blocks.build_dense"))
            m["grids.translation_classes"] = (classes, "count")
            m["blocks.unique_payload_ratio"] = (classes / max(built_leaves, 1), "ratio")
        except AttributeError:
            absent += ["grids.translation_classes", "blocks.unique_payload_ratio"]
        nnz = built.to_uniform.matrix.nnz + built.to_quasi.matrix.nnz if w.quasi else 0
        m["quasi.transfer_nnz"] = (nnz, "count")
        m["solver.iters"] = (self.solves[0][1] if self.solves else 0, "count")

        v = np.linspace(0.0, 1.0, self.ref.n ** self.ref.d)
        fft = []
        for _ in range(5):
            start = time.perf_counter()
            self.ref.matvec(v)
            fft.append(time.perf_counter() - start)
        m["reference.fft_matvec_ms"] = (1e3 * statistics.median(fft), "ms")
        m["trace.setup_overhead_pct"] = (
            100.0 * (self.traced_setup / self.setup_times[-1] - 1.0), "%")
        m["trace.matvec_overhead_pct"] = (
            100.0 * (np.median(self.traced_samples) / np.median(self.samples) - 1.0), "%")
        m["trace.spans"] = (self.tracer.mark(), "count")

        if w.quasi:
            app = loop.get("quasi.apply_pipeline", empty)
            self.lines.append(
                "quasi.quasi_to_uniform_s "
                f"{build.get('quasi.quasi_to_uniform', empty)['total_s']:.4f} s, "
                "quasi.uniform_to_quasi_s "
                f"{build.get('quasi.uniform_to_quasi', empty)['total_s']:.4f} s, "
                f"quasi.apply_transfer_s {app['self_s'] / max(app['calls'], 1):.6f} s "
                "per application"
            )
        if absent:
            self.lines.append("absent (boundary not found): " + ", ".join(absent))
        self.lines.append("build phase, by self time (calls, total s, self s):")
        self.lines += self._table(build)
        self.lines.append(f"loop phase over {matvecs} traced matvecs (calls, total s, self s):")
        self.lines += self._table(loop)
        return m

    @staticmethod
    def _table(summary) -> list[str]:
        rows = sorted(summary.items(), key=lambda kv: -kv[1]["self_s"])
        return [
            f"  {name:36s} {s['calls']:9d} {s['total_s']:11.4f} {s['self_s']:11.4f}"
            for name, s in rows
        ]

    # -- one run --------------------------------------------------------------

    def run(self) -> dict:
        built = self.build()
        metrics = {}
        if built is not None:
            self.references(built)
            (self.solve if self.w.loop == "cg" else self.stream)(built)
            if self.samples and self.errors:
                metrics = self.per_layer(built) if self.trace else self.end_to_end(built)
            if self.trace:
                OUT.mkdir(parents=True, exist_ok=True)
                self.tracer.save(OUT / f"trace-{self.w.name}-s{self.seed}.npz")
        return {
            "correct": not self.tally.failures and bool(metrics),
            "attempted": max(self.tally.attempted, 1),
            "failed": len(self.tally.failures) if metrics else max(len(self.tally.failures), 1),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
