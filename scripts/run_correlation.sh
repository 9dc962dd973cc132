#!/bin/sh
# Weight-vs-accuracy correlation study on mildly shifted two-moons.
set -eu
# One BLAS thread, as the perfbench workers run and as the committed out/ was
# written: the moons studies' last bits depend on the thread count.
export OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1
cd "$(dirname "$0")/.."
python3 -m shiftagg correlate --config configs/correlation.cfg --out out/correlation
echo "wrote out/correlation/results.csv, results.json, plots/"
