#!/usr/bin/env bash
# Runs every workload once, untraced, and prints each one's end-to-end
# metrics with their units and failed_frac:
#
#   bash perfbench/all.sh [seed] [seconds]
set -euo pipefail
here="$(dirname "${BASH_SOURCE[0]}")"
for w in c880-er mul8-aem tiled-part; do
	bash "$here/run.sh" --workload "$w" --seed "${1:-1}" --seconds "${2:-36}" --trace 0
done
