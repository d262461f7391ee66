#!/bin/bash
# Regenerates every paper table/figure. Sequential; ~1-2 h on one core.
set -u
cd "$(dirname "$0")"
R=results
run() {
  name=$1; shift
  echo "=== $name: $* ==="
  start=$(date +%s)
  "$@" > "$R/$name.txt" 2> "$R/$name.log" || echo "FAILED: $name"
  echo "host seconds: $(( $(date +%s) - start ))" >> "$R/$name.txt"
}
run fig02 target/release/fig02_ls_utilization
run fig05 target/release/fig05_atomgen
run fig08 target/release/fig08_latency --json=$R/fig08.json
run fig14 target/release/fig14_prototype
run fig10 target/release/fig10_ablation
run fig12 target/release/fig12_engine_sweep
run fig13 target/release/fig13_buffer_sweep
run fig09 target/release/fig09_throughput --json=$R/fig09.json
run tab2  target/release/tab2_utilization --json=$R/tab2.json
run fig11 target/release/fig11_energy --json=$R/fig11.json
# Serving layer: cold plan -> byte-identical cache hit -> batch-2 miss
# equal to request::plan -> persist/restart -> recovered hit; the binary
# exits non-zero if any check fails.
run serve target/release/ad-serve --smoke --summary=$R/serve_smoke.json
echo "ALL EXPERIMENTS DONE"
