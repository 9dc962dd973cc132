#!/bin/sh
# Weight-convergence rate check at n = m in {250, 1000, 4000}.
set -eu
cd "$(dirname "$0")/.."
python3 -m shiftagg rate-check --config configs/rate_check.cfg --out out/rate
echo "wrote out/rate/results.csv, results.json, plots/"
