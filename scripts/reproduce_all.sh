#!/bin/sh
# Run all four studies back to back (1.7 s in all, the median of 3 runs on a
# 2-core machine with Python 3.11 and numpy 2.4).
set -eu
# One BLAS thread, as the perfbench workers run: the sensitivity study's
# last bits depend on the thread count.
export OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1
cd "$(dirname "$0")"
./run_sinc.sh
./run_rate_check.sh
./run_sensitivity.sh
./run_correlation.sh
echo "all studies written under out/"
