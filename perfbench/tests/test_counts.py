"""Runs of the benchmark on small versions of its workloads."""

import dataclasses
import inspect
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import htlr
from bench import Bench
from workloads import WORKLOADS

SMALL = {
    "slp2d-n128-solve": 32,
    "gauss3d-n32": 10,
    "quasi-n8192": 16,
}
COUNTS = (
    "grids.leaves_admissible", "grids.leaves_dense", "grids.translation_classes",
    "operators.matvec_flops", "kernels.pairwise_evals", "solver.iters",
)


def _small(name):
    return dataclasses.replace(WORKLOADS[name], n=SMALL[name])


def _metrics(w, trace):
    result = Bench(w, seed=5, seconds=0.2, trace=trace).run()
    assert result["correct"], result
    return {k: v["value"] for k, v in result["metrics"].items()}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_deterministic_counts_repeat(name):
    w = _small(name)
    first = [_metrics(w, trace=True), _metrics(w, trace=False)]
    second = [_metrics(w, trace=True), _metrics(w, trace=False)]
    for key in COUNTS:
        assert first[0][key] == second[0][key], key
    assert first[1]["stored_mscalars"] == second[1]["stored_mscalars"]
    if w.loop == "cg":
        assert first[0]["solver.iters"] > 0


def test_traced_run_restores_bindings():
    originals = {
        (mod, attr): value
        for mod in [m for n, m in sys.modules.items() if n.split(".")[0] == "htlr"]
        for attr, value in vars(mod).items()
        if inspect.isfunction(value)
    }
    _metrics(_small("quasi-n8192"), trace=True)
    for (mod, attr), value in originals.items():
        assert getattr(mod, attr) is value, f"{mod.__name__}.{attr}"
    assert htlr.matvec.__module__ == "htlr.operators"


def test_refuses_to_run_without_the_package(tmp_path):
    bench_dir = Path(__file__).resolve().parent.parent
    shutil.copytree(bench_dir, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gauss3d-n32",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
