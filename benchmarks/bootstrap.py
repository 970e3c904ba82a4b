"""Environment set-up shared by the benchmark's scripts and its test.

Call `prepare()` before numpy or qwattack is imported: the BLAS thread pins
only take effect if they are in the environment when numpy loads its BLAS,
and the checkout's own `src` must win over any installed copy.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def prepare() -> Path:
    """Pin BLAS/OpenMP threads to 1 and put `<checkout>/src` first on sys.path.

    Exits with a message (status 1) when the checkout holds no qwattack
    sources, so a benchmark copied away from the code prints no result.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "qwattack" / "__init__.py").is_file():
        sys.exit(f"benchmark: no qwattack sources under {SRC}; run it from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    return ROOT
