"""Process set-up shared by the benchmark's entry scripts.

Import this module before NumPy or dfcycle: it pins the BLAS pools to one
thread and puts the checkout's ``src`` directory first on ``sys.path``, so the
benchmark always measures the library source next to it and never an
installed copy.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

EXIT_NO_SOURCE = 2


def require_source() -> None:
    """Exit with code 2, printing nothing to stdout, when ``src/dfcycle`` is absent."""
    if not (SRC / "dfcycle" / "__init__.py").is_file():
        print(f"error: library source not found at {SRC / 'dfcycle'}", file=sys.stderr)
        sys.exit(EXIT_NO_SOURCE)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
