#!/bin/sh
# check.sh runs the same gate as CI (.github/workflows/ci.yml) locally:
# build, go vet, gofmt, the determinism lint suite, the test suite, the
# benchmark module's vet and tests, and the race-detector pass over the
# simulator packages.
set -eu
cd "$(dirname "$0")"

echo "==> go build ./..."
go build ./...

echo "==> go vet ./..."
go vet ./...

echo "==> gofmt -l (internal/lint/testdata excluded: the analyzers read those fixtures as written)"
unformatted="$(gofmt -l . | grep -v '^internal/lint/testdata/' || true)"
if [ -n "$unformatted" ]; then
  echo "    FAIL: gofmt would reformat:"
  echo "$unformatted" | sed 's/^/      /'
  exit 1
fi

echo "==> cohort-vet -baseline lint.baseline ./..."
go run ./cmd/cohort-vet -baseline lint.baseline ./...

echo "==> cohort-vet concurrency analyzers (report artifact)"
go run ./cmd/cohort-vet -only lockorder,atomicmix,goleak,ctxflow,syncmisuse \
  -baseline lint.baseline -json /tmp/concurrency-report.json ./...

echo "==> seeded concurrency mutants (each analyzer must fail closed)"
go test -run TestConcurrencyMutants ./internal/lint

echo "==> go test -shuffle=on ./..."
go test -shuffle=on ./...

echo "==> perfbench module (go vet + go test; it builds against this module's API)"
(cd perfbench && go vet ./... && go test ./...)

echo "==> go test -race -shuffle=on ./internal/..."
go test -race -shuffle=on ./internal/...

echo "==> go test -race (parallel evaluation engine)"
go test -race -shuffle=on ./internal/parallel ./internal/opt ./internal/experiments

echo "==> cohort-bench -run all smoke (every registry entry, -j 1 vs -j 8)"
smokedir="$(mktemp -d)"
go build -o "$smokedir/cohort-bench" ./cmd/cohort-bench
for j in 1 8; do
  "$smokedir/cohort-bench" -run all -j "$j" -scale 0.01 -cap 800 -benches fft,water -pop 8 -gens 6 > "$smokedir/all-j$j.txt"
done
diff "$smokedir/all-j1.txt" "$smokedir/all-j8.txt"
rm -rf "$smokedir"

echo "==> bad sizing flags and per-core lists exit 1 with a message, never a panic"
sizedir="$(mktemp -d)"
for tool in cohort-sim cohort-opt cohort-analyze cohort-trace; do
  go build -o "$sizedir/$tool" "./cmd/$tool"
done
while read -r tool args; do
  # shellcheck disable=SC2086 # word-split the flags and their values
  if "$sizedir/$tool" $args < /dev/null > "$sizedir/out.txt" 2>&1; then status=0; else status=$?; fi
  if [ "$status" != 1 ] || [ ! -s "$sizedir/out.txt" ] || grep -q 'panic:' "$sizedir/out.txt"; then
    echo "    FAIL: $tool $args exited $status:"
    sed 's/^/      /' "$sizedir/out.txt"
    exit 1
  fi
done <<'CASES'
cohort-sim -cores 0
cohort-sim -scale 0
cohort-opt -cores 0
cohort-opt -scale 0
cohort-analyze -cores 0
cohort-analyze -scale 0
cohort-trace -cores 0
cohort-trace -scale 0
cohort-opt -timed 1,2,x,0
cohort-opt -gamma -5,0,0,0
cohort-sim -crit 1,2,0,0
cohort-analyze -timers 1,2
CASES
rm -rf "$sizedir"

echo "==> batched-vs-scalar and curve-vs-scalar fuzz seeds (committed corpus)"
go test -run 'FuzzBatchVsScalar|FuzzCurveVsScalar' ./internal/analysis

echo "==> coverage gate (internal/sim + internal/opt + internal/analysis combined, post-PR10 floor 96.5%)"
covdir="$(mktemp -d)"
go test -coverprofile "$covdir/cover.out" ./internal/sim ./internal/opt ./internal/analysis >/dev/null
go tool cover -func "$covdir/cover.out" | awk '
  /^total:/ {
    sub(/%/, "", $3)
    printf "    combined coverage: %s%%\n", $3
    if ($3 + 0 < 96.5) { print "    FAIL: below 96.5% floor"; exit 1 }
  }'
rm -rf "$covdir"

echo "==> observability smoke (manifest + report gate: batched-memo oracle at j1/j8)"
obsdir="$(mktemp -d)"
trap 'rm -rf "$obsdir"' EXIT
# All three runs land in the same directory under the same config key, so
# -check and the fingerprint diff below gate the optimizer's batched-memo
# oracle at -j 1 and -j 8 against the committed fingerprints, which the
# scalar oracle produced. At pop 8 x gens 6 a run sees at most 56 fresh
# genomes, far below the curve build budget, and each run is a fresh
# process, so the default (-curve) run never installs curves either;
# curve ≡ scalar is gated by the Go suites in internal/opt.
go run ./cmd/cohort-bench -run fig5a -j 1 -curve=false -scale 0.01 -cap 800 -benches fft,water -pop 8 -gens 6 -out-dir "$obsdir" >/dev/null 2>&1
go run ./cmd/cohort-bench -run fig5a -j 8 -curve=false -scale 0.01 -cap 800 -benches fft,water -pop 8 -gens 6 -out-dir "$obsdir" >/dev/null 2>&1
go run ./cmd/cohort-bench -run fig5a -j 1 -scale 0.01 -cap 800 -benches fft,water -pop 8 -gens 6 -out-dir "$obsdir" >/dev/null 2>&1
go run ./cmd/cohort-report -dir "$obsdir" -check >/dev/null
# cohort-sim's metrics snapshot and its post-run invariant sweep on a
# non-perfect LLC: two runs of one config must agree under -check. Both runs
# write the same manifest name, so the first is renamed before the second.
simdir="$obsdir/sim"
simflags="-bench fft -timers 300,20,20,-1 -nonperfect -check -out-dir $simdir"
# shellcheck disable=SC2086 # word-split the flags
go run ./cmd/cohort-sim $simflags >/dev/null 2>&1
for f in "$simdir"/*.manifest.json; do mv "$f" "${f%.manifest.json}-first.manifest.json"; done
# shellcheck disable=SC2086
go run ./cmd/cohort-sim $simflags >/dev/null 2>&1
test "$(ls "$simdir"/*.manifest.json | wc -l)" -eq 2
go run ./cmd/cohort-report -dir "$simdir" -check >/dev/null

echo "==> perf smoke (bit-identical fingerprints vs pre-overhaul goldens)"
go run ./cmd/cohort-report -dir "$obsdir" -fingerprints > "$obsdir/fingerprints.txt"
diff cmd/cohort-report/testdata/perf-smoke.fingerprints "$obsdir/fingerprints.txt"

echo "==> live debug-server smoke (/healthz, /metrics, /runs, pprof mid-run)"
go build -o "$obsdir/cohort-bench" ./cmd/cohort-bench
"$obsdir/cohort-bench" -run fig5a,attribution -j 2 -scale 1 -cap 0 -pop 24 -gens 24 \
  -listen 127.0.0.1:8723 >/dev/null &
benchpid=$!
up=0
i=0
while [ "$i" -lt 100 ]; do
  if curl -fsS http://127.0.0.1:8723/healthz 2>/dev/null | grep -q ok; then up=1; break; fi
  i=$((i + 1)); sleep 0.1
done
if [ "$up" != 1 ]; then
  echo "    FAIL: debug server never answered /healthz"
  kill "$benchpid" 2>/dev/null || true
  exit 1
fi
curl -fsS http://127.0.0.1:8723/metrics > "$obsdir/metrics.prom"
grep -q '^cohort_run_events_total' "$obsdir/metrics.prom"
curl -fsS http://127.0.0.1:8723/runs > "$obsdir/runs.json"
grep -q '"tool": "cohort-bench"' "$obsdir/runs.json"
curl -fsS "http://127.0.0.1:8723/debug/pprof/goroutine?debug=1" > "$obsdir/goroutine.pprof"
test -s "$obsdir/goroutine.pprof"
wait "$benchpid"

echo "==> cohort-model -smoke (exhaustive closure at depth 4)"
go run ./cmd/cohort-model -smoke -depth 4 -q -out "$obsdir/counterexample.txt"

echo "==> all checks passed"
