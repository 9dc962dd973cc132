#!/bin/sh
# Shifted-sinc near-optimality study; writes results and plots to out/sinc.
set -eu
# One BLAS thread, as the perfbench workers run and as the committed out/ was
# written: the moons studies' last bits depend on the thread count.
export OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1
cd "$(dirname "$0")/.."
python3 -m shiftagg run --config configs/sinc_near_optimality.cfg --out out/sinc
echo "wrote out/sinc/results.csv, results.json, plots/"
