import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]
