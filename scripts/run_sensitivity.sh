#!/bin/sh
# Corrupted-model sensitivity study on transformed two-moons.
set -eu
# One BLAS thread, as the perfbench workers run and as the committed out/ was
# written: the moons studies' last bits depend on the thread count.
export OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1
cd "$(dirname "$0")/.."
python3 -m shiftagg sensitivity --config configs/sensitivity.cfg --out out/sensitivity
echo "wrote out/sensitivity/results.csv, results.json, plots/"
