"""Process set-up shared by the benchmark's entry points.

Pins the BLAS thread count before numpy is imported and puts the checkout's
own ``src`` first on the import path, so the benchmark always measures the
library built from the tree it sits in.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# One BLAS thread: the gradient paths are dominated by elementwise numpy,
# which timed the same at one and two threads, and one thread leaves the
# second core to the rest of the machine.
BLAS_THREADS = 1
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Whether prepare() set the pin. BLAS reads it when numpy is first imported,
# so a process that imported numpy earlier runs unpinned.
PINNED = False


def prepare():
    """Pin BLAS threads and make ``lora_kernels`` importable from the checkout.

    Exits with status 1 when the checkout holds no library source, so the
    benchmark never reports a result for code it could not find.
    """
    global PINNED
    if not (SRC / "lora_kernels" / "__init__.py").is_file():
        sys.exit(f"gradbench: no library source at {SRC}; run from a full checkout")
    if "numpy" not in sys.modules:
        for var in _BLAS_VARS:
            os.environ[var] = str(BLAS_THREADS)
        PINNED = True
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
