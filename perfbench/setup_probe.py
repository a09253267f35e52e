"""Set-up probe for ``setup_s``: in a fresh interpreter, import enkbf_lab
and build one workload's configs, then print ``ready``.

Usage: python3 perfbench/setup_probe.py <workload> <seed>
"""

import sys
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(1, str(Path(__file__).resolve().parent.parent / "src"))
    from workloads import build_legs

    build_legs(sys.argv[1], int(sys.argv[2]))
    print("ready", flush=True)
