"""Time one warm qmetric.spectral.pair_eigensystem call on a stored matrix.

run.py starts this script in a child process whose environment limits the
BLAS thread pool to one thread, for the single-thread baseline
`spectral.pair_eigensystem.threads1_s`:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 perfbench/eig1.py MATRIX.npy H

It prints the wall seconds of the call.
"""

import sys
import time

import numpy as np

from qmetric.spectral import pair_eigensystem


def main(path: str, h: float) -> float:
    matrix = np.load(path)
    np.linalg.eig(matrix[:64, :64])  # LAPACK's first call, so the timed call is warm
    t0 = time.perf_counter()
    pair_eigensystem(matrix, h)
    return time.perf_counter() - t0


if __name__ == "__main__":
    print(main(sys.argv[1], float(sys.argv[2])))
