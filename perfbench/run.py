"""Run one rgcl benchmark workload from the root of a source checkout.

    python3 perfbench/run.py --workload pretrain-planted --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. See README.md here.
"""

import os
import sys
from pathlib import Path

# One BLAS thread: the benchmark drives rgcl from one process with no
# worker threads. Must be set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    if not (ROOT / "src" / "rgcl" / "__init__.py").is_file():
        print(f"perfbench: no rgcl source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import harness

    return harness.main(sys.argv[1:], ROOT)


if __name__ == "__main__":
    sys.exit(main())
