#!/usr/bin/env bash
# Measures the monitor's trusted computing base from the source tree: the lines
# of src/monitor/*.{h,cc} that are neither blank nor `//` comments. Prints the
# count and exits non-zero above 5,000, the paper's section 11 figure for the
# Erebor monitor (vs 57k for the Gramine-TDX kernel).
#
# Usage: scripts/tcb_loc.sh
set -euo pipefail

cd "$(dirname "$0")/.."
readonly kLimit=5000

count=$(cat src/monitor/*.h src/monitor/*.cc | grep -cv -e '^[[:space:]]*$' -e '^[[:space:]]*//')
echo "$count"
if (( count > kLimit )); then
  echo "tcb_loc.sh: src/monitor is $count lines, above the paper's $kLimit" >&2
  exit 1
fi
