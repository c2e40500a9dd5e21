"""Entry point of the layered benchmark (see README.md beside it).

    python3 benchmarks/layered/run.py --workload flat_quiet --seed 1 \
        --seconds 15 --trace 0

Runs from a plain checkout: the program under test is imported from
``src/`` at the repo root, the benchmark's own package from this
directory.
"""

import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
SOURCE = HERE.parent.parent / "src"

if __name__ == "__main__":
    if not (SOURCE / "repro" / "__init__.py").is_file():
        sys.exit(f"run.py: no program to measure: {SOURCE}/repro is missing")
    sys.path[:0] = [str(SOURCE), str(HERE)]
    from layeredbench.runner import main

    sys.exit(main())
