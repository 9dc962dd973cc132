#!/bin/sh
# Weight-convergence rate check at n = m in {250, 1000, 4000}.
set -eu
# One BLAS thread, as the perfbench workers run and as the committed out/ was
# written: the moons studies' last bits depend on the thread count.
export OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1
cd "$(dirname "$0")/.."
python3 -m shiftagg rate-check --config configs/rate_check.cfg --out out/rate
echo "wrote out/rate/results.csv, results.json, plots/"
