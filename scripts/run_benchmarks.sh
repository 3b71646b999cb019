#!/usr/bin/env bash
# Runs every benchmark binary in order, teeing combined output, and folds
# the per-bench measurement rows into a machine-readable baseline file.
#
#   scripts/run_benchmarks.sh [build_dir] [out_file] [baseline_json]
#
# Benchmarks emit one JSON Lines row per measurement (bench, dataset,
# threads, seconds) into HCD_BENCH_BASELINE; this script converts the rows
# to one JSON array (BENCH_baseline.json by default) so successive commits
# can be diffed mechanically.
#
# HCD_BENCH_SMALL=1 in the environment shrinks all datasets ~16x.
set -u

BUILD_DIR="${1:-build}"
OUT="${2:-bench_output.txt}"
BASELINE="${3:-BENCH_baseline.json}"

ROWS="$(mktemp)"
trap 'rm -f "$ROWS"' EXIT
export HCD_BENCH_BASELINE="$ROWS"

: > "$OUT"
for b in "$BUILD_DIR"/bench/bench_*; do
  [ -f "$b" ] && [ -x "$b" ] || continue
  echo "===== $(basename "$b") =====" | tee -a "$OUT"
  "$b" 2>/dev/null | tee -a "$OUT"
  echo | tee -a "$OUT"
done

# End-to-end serving rows: drive the socket server over the same cached
# suite graphs the query-throughput bench used, with a deep pipeline
# window so the row measures sustained server QPS (not loopback RTT).
# Argmax requests are answered from each generation's per-level tables.
CLI="$BUILD_DIR/tools/hcd_cli"
if [ -x "$CLI" ]; then
  for g in bench_data/*.bin; do
    [ -f "$g" ] || continue
    echo "===== serve-bench $(basename "$g") =====" | tee -a "$OUT"
    "$CLI" serve-bench "$g" --connections=8 --server-workers=8 \
      --queries=40000 --pipeline=32 2>/dev/null | tee -a "$OUT"
    echo | tee -a "$OUT"
  done

  # Element-hierarchy serving rows: the same cached graphs through the
  # truss regime of query-bench (build + freeze + ElementSearchIndex +
  # concurrent DensestAtLeast/CommunityOf workload). Emits
  # truss_query_bench_cli rows next to the core serving baselines.
  for g in bench_data/*.bin; do
    [ -f "$g" ] || continue
    echo "===== query-bench --hierarchy=truss $(basename "$g") =====" \
      | tee -a "$OUT"
    "$CLI" query-bench "$g" --hierarchy=truss --query-threads=8 \
      --queries=20000 2>/dev/null | tee -a "$OUT"
    echo | tee -a "$OUT"
  done
fi
echo "wrote $OUT"

if command -v python3 > /dev/null 2>&1; then
  python3 - "$ROWS" "$BASELINE" <<'EOF'
import json, sys

rows = []
with open(sys.argv[1]) as f:
    for line in f:
        line = line.strip()
        if line:
            rows.append(json.loads(line))
with open(sys.argv[2], "w") as f:
    json.dump(rows, f, indent=1)
    f.write("\n")
print(f"wrote {sys.argv[2]} ({len(rows)} measurements)")
EOF
else
  cp "$ROWS" "$BASELINE.jsonl"
  echo "python3 not found; wrote raw rows to $BASELINE.jsonl"
fi
