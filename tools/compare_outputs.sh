#!/usr/bin/env bash
# Byte-identity matrix: runs two dnsembed builds on the same inputs and
# compares what they write. A change that claims to keep every artifact,
# report and CLI output byte-identical must pass it against its parent.
#
#   run       --samples 300000 on seeds 11, 12, 13; at CLI defaults;
#             --workers 1; --workers 4;
#             --zero-day 2 --evasion 2 --iot-fraction 0.15; under
#             DNSEMBED_FORCE_SCALAR=1. Every workdir file is compared
#             (report.md, manifest.run, the *_sim.csr graphs, the .emb
#             embeddings, the .bg graphs, kept.domains, labeled.set,
#             truth.gt, trace.stats), except sv/: parents from before
#             heartbeats and telemetry moved onto worker pipes still
#             write their supervisor scratch there.
#   report    the one-shot markdown report, streaming section included.
#   graphs    the bipartite and similarity CSVs of a simulated log.
#   embed     then the detect stdout, the cluster CSV and the score output
#             (the embedding file itself is not compared, so a change of
#             its format alone does not trip the check).
#   faultsim  the degradation JSON at severities 0 and 0.5.
#
# Usage: tools/compare_outputs.sh PARENT_DNSEMBED CHANGE_DNSEMBED
# Both arguments are dnsembed binaries (e.g. build/tools/dnsembed). Every
# case runs and every file is compared, each one that differs is named, and
# the exit status is 0 only when every output matches (1 otherwise, or as
# soon as a case fails to run). Each case runs the two builds side by side;
# the matrix takes a few minutes.
set -euo pipefail

if [[ $# -ne 2 ]]; then
  echo "usage: $0 PARENT_DNSEMBED CHANGE_DNSEMBED" >&2
  exit 2
fi
parent_bin="$(realpath "$1")"
change_bin="$(realpath "$2")"
out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT

# run_case NAME [VAR=VALUE ...] ARGS...: runs `dnsembed ARGS...` with each
# build in $out/{parent,change}/NAME, stdout and stderr into stdout.txt and
# stderr.txt there.
run_case() {
  local name="$1"
  shift
  local -a env_vars=()
  while [[ $# -gt 0 && "$1" == *=* && "$1" != -* ]]; do
    env_vars+=("$1")
    shift
  done
  local side bin
  local -a pids=()
  for side in parent change; do
    bin="$parent_bin"
    [[ "$side" == change ]] && bin="$change_bin"
    mkdir -p "$out/$side/$name"
    (cd "$out/$side/$name" &&
      env ${env_vars[@]+"${env_vars[@]}"} "$bin" "$@" > stdout.txt 2> stderr.txt) &
    pids+=("$!")
  done
  local pid
  for pid in "${pids[@]}"; do
    if ! wait "$pid"; then
      echo "compare_outputs: case '$name' failed: dnsembed $*" >&2
      tail -n 20 "$out"/*/"$name"/stderr.txt >&2
      exit 1
    fi
  done
}

# Set once anything differs; the exit status reads it.
differs=0

# check LABEL FILE...: cmp each file (a path under both sides), naming each
# one that differs, then print one line for LABEL.
check() {
  local label="$1"
  shift
  local file ok=1
  for file in "$@"; do
    if ! cmp -s "$out/parent/$file" "$out/change/$file"; then
      echo "compare_outputs: DIFFERS: $file" >&2
      ok=0
      differs=1
    fi
  done
  if ((ok)); then echo "same: $label"; else echo "differs: $label"; fi
}

# check_tree NAME: the file lists of both sides' NAME directories, and every
# file in both, except sv/ (the supervisor scratch of older parents) and the
# captured stdout/stderr.
check_tree() {
  local name="$1"
  local list_parent list_change
  list_parent="$(cd "$out/parent/$name" && find . -type f ! -path '*/sv/*' ! -name 'std*.txt' | sort)"
  list_change="$(cd "$out/change/$name" && find . -type f ! -path '*/sv/*' ! -name 'std*.txt' | sort)"
  if [[ "$list_parent" != "$list_change" ]]; then
    echo "compare_outputs: DIFFERS: file list of $name" >&2
    diff <(echo "$list_parent") <(echo "$list_change") >&2 || true
    differs=1
  fi
  local -a files=()
  local file
  while IFS= read -r file; do
    files+=("$name/${file#./}")
  done < <(comm -12 <(echo "$list_parent") <(echo "$list_change"))
  check "$name (${#files[@]} files)" "${files[@]}"
}

runs=(
  "seed11 run --workdir w --samples 300000 --seed 11"
  "seed12 run --workdir w --samples 300000 --seed 12"
  "seed13 run --workdir w --samples 300000 --seed 13"
  "defaults run --workdir w"
  "workers1 run --workdir w --samples 300000 --workers 1"
  "workers4 run --workdir w --samples 300000 --workers 4"
  "adversarial run --workdir w --samples 300000 --zero-day 2 --evasion 2 --iot-fraction 0.15"
  "scalar DNSEMBED_FORCE_SCALAR=1 run --workdir w --samples 300000"
)
for spec in "${runs[@]}"; do
  read -r -a words <<< "$spec"
  run_case "${words[@]}"
  check_tree "${words[0]}"
done

run_case report report --out report.md --samples 300000
check report/report.md report/report.md

run_case cli simulate --out t.log --labels l.csv --hosts 60 --days 2 --sites 300 --families 6
check "simulated log and labels" cli/t.log cli/l.csv
run_case cli graphs --log t.log --out-prefix g_
check "graphs CSVs" cli/g_hdbg.csv cli/g_dibg.csv cli/g_dtbg.csv \
  cli/g_query_sim.csv cli/g_ip_sim.csv cli/g_temporal_sim.csv

run_case cli embed --log t.log --out e.emb --dim 8 --samples 200000
run_case cli detect --embeddings e.emb --labels l.csv --kfold 3
check "detect stdout" cli/stdout.txt
run_case cli cluster --embeddings e.emb --out c.csv --kmin 2 --kmax 12
check "cluster CSV" cli/c.csv
domains="$(grep ',1,' "$out/parent/cli/l.csv" | head -3 | cut -d, -f1 | paste -sd, -)"
run_case cli score --embeddings e.emb --labels l.csv --domains "$domains,unknown.example"
check "score output" cli/stdout.txt

run_case faultsim faultsim --out report.json --hosts 40 --days 2 --sites 150 --families 4 \
  --samples 150000 --severities 0,0.5
check faultsim/report.json faultsim/report.json

if ((differs)); then
  echo "compare_outputs: outputs differ (each file named above)" >&2
  exit 1
fi
echo "compare_outputs: all outputs identical"
