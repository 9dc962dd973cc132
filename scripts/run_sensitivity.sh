#!/bin/sh
# Corrupted-model sensitivity study on transformed two-moons.
set -eu
cd "$(dirname "$0")/.."
python3 -m shiftagg sensitivity --config configs/sensitivity.cfg --out out/sensitivity
echo "wrote out/sensitivity/results.csv, results.json, plots/"
