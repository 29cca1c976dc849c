"""Benchmark entry point, run from the repository root:

    python3 cellbench/run.py --workload beh-attack --seed 1 --seconds 42 --trace 0

It imports the program from ``src/`` next to this directory and refuses to
run (exit code 2, no result line) when that source tree is missing.
"""

import os
import sys
from pathlib import Path


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    source = root / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(f"cellbench: no program source at {source}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(source), str(root)]
    # Measure the shipping configuration: the kernel and solver sanitizers off.
    os.environ["REPRO_CHECK_KERNELS"] = "0"
    os.environ["REPRO_CHECK_SOLVER"] = "0"
    from cellbench.runner import main as run

    return run(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
