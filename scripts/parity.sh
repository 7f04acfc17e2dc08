#!/usr/bin/env bash
# parity.sh — regenerate the deterministic artifact set: every lockstep
# topology, the sharded tier (coordinate-wise and hierarchical), a compressed
# run and the decentralized contract step, each swept in deterministic mode.
# The artifacts (per-cell accuracy curves, summary.csv with update counts and
# wire-byte columns, sweep.json) are a pure function of the code and the
# seeds, so two runs — or a run at this commit and one at its parent — must
# produce directories with an empty `diff -r`.
#
# Usage:
#   scripts/parity.sh <outdir>
#
# Uses only the garfield-scenarios CLI, so the same script runs unmodified
# against an older checkout:
#   (cd /path/to/parent && /path/to/this/scripts/parity.sh /tmp/parent)
#   scripts/parity.sh /tmp/change && diff -r /tmp/parent /tmp/change
set -euo pipefail

if [ $# -ne 1 ]; then
  echo "usage: $0 <outdir>" >&2
  exit 2
fi
mkdir -p "$1"
out="$(cd "$1" && pwd)"

# Build from the checkout in the current directory when it is one (the
# parent-commit use above), from this script's own repository otherwise.
if [ ! -d cmd/garfield-scenarios ]; then
  cd "$(dirname "$0")/.."
fi
bin="$(mktemp -d)"
trap 'rm -rf "$bin"' EXIT
go build -o "$bin/garfield-scenarios" ./cmd/garfield-scenarios
gs="$bin/garfield-scenarios"

"$gs" sweep -topologies vanilla,ssmw,aggregathor,crash-tolerant,msmw,decentralized \
  -rules median,krum -attacks none,reversed -iters 12 -out "$out/topologies" >/dev/null
"$gs" sweep -preset shard-median -rules median,trimmedmean -iters 12 -out "$out/shard-median" >/dev/null
"$gs" sweep -preset shard-hier-krum -iters 12 -out "$out/shard-hier-krum" >/dev/null
"$gs" sweep -preset compress-int8 -iters 12 -out "$out/compress-int8" >/dev/null

# The decentralized contract step under the q = n quorum deterministic mode
# needs: the preset's spec with sync_quorum switched on, swept at fw = 0
# (declared-Byzantine nodes never publish, so q = n with fw > 0 cannot
# complete a contract pull).
"$gs" describe decentralized-demo | sed '1s/{/{ "sync_quorum": true,/' >"$bin/decentralized-sync.json"
"$gs" sweep -spec "$bin/decentralized-sync.json" -fws 0 -iters 12 -out "$out/decentralized-contract" >/dev/null

echo "parity artifacts written to $out"
