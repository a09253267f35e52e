"""Entry point of the enkbf-lab benchmark.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload rates --seed 1 --seconds 55 --trace 0

Workloads: rates, meanfield (see ``workloads.py``).  ``--trace 1`` reports
the per-layer metrics instead of the end-to-end ones.  The package is
imported from the checkout's ``src`` directory, with BLAS and OpenMP pinned
to one thread, so that the experiments' worker pools, if enabled, keep
workers times threads within the CPU count.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

if __name__ == "__main__":
    if not (ROOT / "src" / "enkbf_lab" / "__init__.py").is_file():
        sys.exit(f"run.py: no enkbf_lab sources under {ROOT / 'src'}")
    os.environ.update(THREAD_ENV)
    sys.path.insert(1, str(ROOT / "src"))
    from bench import main

    sys.exit(main(sys.argv[1:]))
