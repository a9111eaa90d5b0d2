#!/bin/bash
# Final-scale campaign driving every figure regenerator. Build the regenerators
# first (`cargo build --release -p reap-bench`). Each regenerator's stdout lands
# in results/<name>.txt and its stderr in results/<name>.err; progress and
# the first failure, if any, go to results/campaign.log.
set -Eeuo pipefail
ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$ROOT"
BIN=target/release
LOG=results/campaign.log

# run NAME [ACCESSES]: one regenerator, at REAP_ACCESSES=ACCESSES when given.
run() {
    local name=$1 accesses=${2:-}
    env ${accesses:+REAP_ACCESSES=$accesses} "$BIN/$name" \
        > "results/$name.txt" 2> "results/$name.err"
    echo "$name done: $(date)" >> "$LOG"
}

echo "start: $(date)" > "$LOG"
trap 'echo "failed (see results/*.err): $(date)" >> "$LOG"' ERR
run fig5 50000000
run fig3 50000000
run fig6 10000000
run table1
run fig1_disturbance
run numeric_example
run overheads
run ablation_ecc 2000000
run ablation_assoc 8000000
run ablation_schemes 8000000
run ablation_replacement 4000000
run ablation_variation 2000000
run ablation_temperature 2000000
run extension_scrub 4000000
run extension_writeback 4000000
run montecarlo_check
echo "all done: $(date)" >> "$LOG"
