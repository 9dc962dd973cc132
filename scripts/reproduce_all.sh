#!/bin/sh
# Run the four studies back to back with this tree's src/, writing out/.
# One BLAS thread, as the perfbench workers run and as the committed out/ was
# written: the moons studies' last bits depend on the thread count.
set -eu
export OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1
cd "$(dirname "$0")/.."
PYTHONPATH="$PWD/src${PYTHONPATH:+:$PYTHONPATH}"
export PYTHONPATH
study() {
  python3 -m shiftagg "$1" --config "configs/$2.cfg" --out "out/$3"
  echo "wrote out/$3/results.csv, results.json, plots/"
}
study run sinc_near_optimality sinc
study rate-check rate_check rate
study sensitivity sensitivity sensitivity
study correlate correlation correlation
echo "all studies written under out/"
