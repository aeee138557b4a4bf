#!/usr/bin/env bash
# Flake census: runs the whole suite COUNT times in shuffled order, once
# plain and once under the race detector, and writes docs/FLAKES.md with one
# row per test that failed at least once: its failure count and rate, the
# mode it failed in, and the commit where the census first saw it fail
# (carried over from the previous docs/FLAKES.md).
#
#   bash scripts/flakecensus.sh                 # 20 runs of ./..., both modes
#   bash scripts/flakecensus.sh 5 ./internal/state ./internal/table
#
# The header of docs/FLAKES.md records the count and packages each mode
# really ran, so a shortened run never reads as a full one. A package that
# fails with no failing test (a build error, a crash between tests) shows as
# a row named "(package)".
set -uo pipefail

count=${1:-20}
shift || true
pkgs=("$@")
[ ${#pkgs[@]} -eq 0 ] && pkgs=(./...)

cd "$(dirname "$0")/.."
out=docs/FLAKES.md
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

run() { # mode, extra go test flags...
	local mode=$1
	shift
	local start=$SECONDS
	go test "$@" -count="$count" -shuffle=on -json "${pkgs[@]}" >"$tmp/$mode.json" 2>"$tmp/$mode.err"
	echo "$mode $? $((SECONDS - start))" >>"$tmp/runs"
}
run plain
run race -race

python3 - "$tmp" "$out" "$count" "$(git describe --always --dirty --abbrev=7)" "${pkgs[*]}" <<'EOF'
import collections, datetime, json, os, re, sys

tmp, out, count, commit, pkgs = sys.argv[1:]
first_seen = {}
if os.path.exists(out):
    for line in open(out):
        m = re.match(r"\| `(.+)` \| `(.+)` \| (\w+) \| \d+ \| [\d.]+ \| (\S+) \|", line)
        if m:
            first_seen[m.group(1, 2, 3)] = m.group(4)

fails = collections.Counter()
for mode in ("plain", "race"):
    for line in open(os.path.join(tmp, mode + ".json"), errors="replace"):
        try:
            ev = json.loads(line)
        except ValueError:
            continue
        if ev.get("Action") == "fail":
            fails[(ev.get("Test") or "(package)", ev["Package"], mode)] += 1

# A package also fails as a whole whenever one of its tests does; keep its
# row only when no test of it failed (a build error, a crash between tests).
for test, pkg, mode in list(fails):
    if test != "(package)" and ("(package)", pkg, mode) in fails:
        del fails[("(package)", pkg, mode)]
runs = [l.split() for l in open(os.path.join(tmp, "runs"))]
with open(out, "w") as f:
    f.write("# Flake census\n\n")
    f.write("Written by `scripts/flakecensus.sh`: `go test -count=N -shuffle=on` over the\n")
    f.write("packages below, once plain and once under `-race`. A row is a test that\n")
    f.write("failed at least once; its rate is failures over N runs.\n\n")
    f.write(f"- commit `{commit}`, {datetime.date.today().isoformat()}\n")
    for mode, code, secs in runs:
        f.write(f"- {mode}: N = {count} over `{pkgs}`, go test exit {code}, {secs} s\n")
    f.write("\n")
    if not fails:
        f.write("No test failed.\n")
    else:
        f.write("| test | package | mode | failures | rate | first seen |\n")
        f.write("|---|---|---|---|---|---|\n")
        for (test, pkg, mode), n in sorted(fails.items(), key=lambda kv: (-kv[1], kv[0])):
            seen = first_seen.get((test, pkg, mode), commit)
            f.write(f"| `{test}` | `{pkg}` | {mode} | {n} | {n / int(count):.2f} | {seen} |\n")
EOF
cat "$out"
