"""The ``separability`` command: ``python -m separability`` and the console script."""

import os
import sys


def main() -> int:
    # numpy starts OpenBLAS's worker pool as it loads, and the pool spins
    # for ~0.1 s of CPU.  The package calls BLAS only for mahalanobis, and
    # the fit's last bits move with the pool's size, so BLAS runs on the
    # calling thread and --threads is the command's only thread count.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from .cli import run

    return run()


if __name__ == "__main__":
    sys.exit(main())
