"""Benchmark entry point.

    python3 perfbench/run.py --workload {desk-dense,grid-35k,grid-350k,all}
                             --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from its
``src/`` directory.  BLAS threads are pinned before numpy loads, so
iteration counts repeat exactly for a given seed.  The last line of
standard output is the JSON result (``correct``, ``attempted``, ``failed``,
``metrics``): the end-to-end metrics with ``--trace 0`` and the per-layer
metrics with ``--trace 1``.  Generated inputs go to ``perfbench/.data`` and
run details and spans to ``perfbench/.out``.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREADS = 1


def main() -> int:
    if not (ROOT / "src" / "gpkrylov" / "__init__.py").is_file():
        print(f"perfbench: no gpkrylov sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import bench
    return bench.main(sys.argv[1:], BLAS_THREADS, Path(__file__).resolve())


if __name__ == "__main__":
    sys.exit(main())
