#!/usr/bin/env bash
# Measures the monitor's trusted computing base from the source tree: the lines
# of src/monitor/*.{h,cc} that are neither blank nor `//` comments. Prints one
# count per file, then the total as the last line, and exits non-zero when the
# total is above 5,000, the paper's section 11 figure for the Erebor monitor (vs
# 57k for the Gramine-TDX kernel).
#
# Usage: scripts/tcb_loc.sh            (total: scripts/tcb_loc.sh | tail -n 1)
set -euo pipefail

cd "$(dirname "$0")/.."
readonly kLimit=5000

count_lines() {
  grep -cv -e '^[[:space:]]*$' -e '^[[:space:]]*//' "$@" || true
}

total=0
for file in src/monitor/*.h src/monitor/*.cc; do
  lines=$(count_lines "$file")
  printf '%6d %s\n' "$lines" "$file"
  total=$((total + lines))
done
echo "$total"
if (( total > kLimit )); then
  echo "tcb_loc.sh: src/monitor is $total lines, above the paper's $kLimit" >&2
  exit 1
fi
