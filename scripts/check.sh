#!/bin/sh
# Pre-merge gate: vet, build, full test suite, then the race detector over
# the packages that exercise the router protocol concurrently-audited paths.
# Run from the repository root (directly or via `make check`).
set -eux

# Work-dir hygiene: a checkpoint or telemetry writer killed mid-write
# leaves `.tmp-*` files behind, and a run pointed at the repository
# leaves `ckpt-*.rocosnap` snapshots; either is stale state that a later
# run could silently resume from, so fail fast before building anything.
STALE="$(find . -path ./.git -prune -o \( -name '.tmp-*' -o -name 'ckpt-*.rocosnap' \) -print)"
if [ -n "$STALE" ]; then
	echo "check.sh: stale checkpoint/telemetry temp files in the work dir; remove them first:" >&2
	echo "$STALE" >&2
	exit 1
fi

go vet ./...
# Formatting gate: every tracked Go file must be gofmt-clean (listing the
# tracked files keeps untracked build output such as .bench_build/ out).
UNFORMATTED="$(gofmt -l $(git ls-files '*.go'))"
if [ -n "$UNFORMATTED" ]; then
	echo "check.sh: files need gofmt:" >&2
	echo "$UNFORMATTED" >&2
	exit 1
fi
go build ./...
# The full test suite, which includes the test-only-code gate
# (scripts/testonly, also `make testonly`): no declaration in a non-test
# file may be referenced only by tests, unless its allowlist names it.
go test ./...
# Documentation gate: package comments, exported-identifier docs in
# public packages, live relative markdown links, and markdown code
# references that name declared identifiers.
sh scripts/doccheck.sh
go test -race ./internal/network ./internal/router/... ./internal/core
# Differential seed-corpus pass for the bitmap arbiter fast path, under
# the race detector: GrantMask/PeekMask must match the legacy linear scan
# on every seed (extended exploration is manual:
# `go test -fuzz=FuzzGrantMask ./internal/arbiter`).
go test -race -run '^FuzzGrantMask$' ./internal/arbiter
# The same for the packed credit book: FuzzOutVCBook's committed corpus
# (internal/router/testdata/fuzz) replays credit, grant and snapshot
# sequences against a slice-based reference book
# (`go test -fuzz=FuzzOutVCBook ./internal/router` explores further).
go test -race -run '^FuzzOutVCBook$' ./internal/router
# Vet and smoke the end-to-end benchmark (its own module, so ./... skips
# it): statistics tests plus every workload at smoke scale, traced and
# untraced.
(cd cmd/rocoperf && go vet . && go test .)
# The CLIs and the JSON checker are built once, into the one temp dir
# every smoke below writes under.
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT
for cli in rocosim rocotrace rocobench rocoserve; do
	go build -o "$TMP/$cli" ./cmd/$cli
done
go build -o "$TMP/jsoncheck" ./scripts/jsoncheck
ROCOSIM="$TMP/rocosim"
JSONCHECK="$TMP/jsoncheck"
# Smoke the CLI's JSON output: a tiny reliable run under a fault must emit
# parseable JSON with the reliability counters present.
"$ROCOSIM" -json -reliable -rate 0.2 -warmup 200 -measure 2000 \
	-faults-at 150 -faultclass noncritical -audit 64 \
	| "$JSONCHECK" ResidualLoss Retransmissions GiveUps Watchdog FaultEvents
# Telemetry smoke: an epoch-sampled run must emit the Telemetry series in
# its JSON result, and the rocotrace exporter must produce a CSV with a
# header plus at least one epoch row.
"$ROCOSIM" -json -telemetry-every 128 -rate 0.2 -warmup 200 -measure 2000 \
	| "$JSONCHECK" Telemetry AvgLatency Completion
"$TMP/rocotrace" -telemetry -width 4 -height 4 -warmup 100 -measure 800 -every 64 -format csv >"$TMP/tele.csv"
test "$(wc -l <"$TMP/tele.csv")" -gt 2
# Kernel equivalence: `equivalent NAME FLAGS...` runs one configuration
# under the reference kernel, the default activity-gated kernel and three
# shards on two workers, and all three must emit byte-identical JSON —
# telemetry epochs included, since the sampled stream is part of the
# kernel-independence contract (DESIGN.md 4b and 4d).
equivalent() {
	name="$1"
	shift
	"$ROCOSIM" "$@" -kernel reference >"$TMP/$name.ref"
	"$ROCOSIM" "$@" >"$TMP/$name.gated"
	"$ROCOSIM" "$@" -shards 3 -workers 2 >"$TMP/$name.sharded"
	cmp "$TMP/$name.ref" "$TMP/$name.gated"
	cmp "$TMP/$name.ref" "$TMP/$name.sharded"
}
# Dense 4x4 runs, healthy and with a runtime fault.
equivalent dense -json -width 4 -height 4 -rate 0.2 -warmup 100 -measure 800 -audit 32 -telemetry-every 128
equivalent faulted -json -width 4 -height 4 -rate 0.2 -warmup 100 -measure 800 -audit 32 -telemetry-every 128 \
	-faults-at 150 -faultclass noncritical
# Chiplets with a runtime D2D-interface fault: the JSON must carry the
# boundary-link counters, and the D2D pipes are part of the
# kernel-independence contract.
equivalent chip -json -topology multichipmesh -chips 2x2 -chip-size 4x4 \
	-d2d-class serial -reliable -rate 0.15 -warmup 100 -measure 1500 -audit 32 \
	-d2d-fault 0:east@800
"$JSONCHECK" D2DFlits D2DEnergyNJ GiveUps FaultEvents <"$TMP/chip.ref"
# Kernel equivalence where most routers sleep: dense grids barely
# exercise sleep and wake, so a sparse 32x32 mesh with a runtime fault and
# a sparse 2x2 grid of 8x8 chiplets with a D2D-interface fault run too.
equivalent sparse -json -width 32 -height 32 -rate 0.004 -warmup 100 -measure 2000 -audit 16 \
	-telemetry-every 128 -faults-at 150 -faultclass noncritical
equivalent sparsechip -json -topology multichipmesh -chips 2x2 -chip-size 8x8 -d2d-class serial \
	-reliable -rate 0.01 -warmup 100 -measure 1500 -audit 16 -d2d-fault 0:east@800
# Checkpoint/resume round-trip: the same reliable faulted run straight
# through, with periodic snapshots, and interrupted-then-resumed must all
# emit byte-identical JSON — snapshots never perturb a run, and a resumed
# run is indistinguishable from one that never stopped.
CKPTDIR="$TMP/ckpt"
mkdir "$CKPTDIR"
"$ROCOSIM" -json -reliable -rate 0.2 -warmup 100 -measure 2000 \
	-faults-at 150 -faultclass noncritical >"$CKPTDIR/full.json"
"$ROCOSIM" -json -reliable -rate 0.2 -warmup 100 -measure 2000 \
	-faults-at 150 -faultclass noncritical -trace 3 \
	-checkpoint-every 100 -checkpoint-dir "$CKPTDIR/snaps" >"$CKPTDIR/ckpt.json"
cmp "$CKPTDIR/full.json" "$CKPTDIR/ckpt.json"
"$ROCOSIM" -json -reliable -rate 0.2 -warmup 100 -measure 2000 \
	-faults-at 150 -faultclass noncritical \
	-resume -checkpoint-dir "$CKPTDIR/snaps" >"$CKPTDIR/resumed.json"
cmp "$CKPTDIR/full.json" "$CKPTDIR/resumed.json"
# Snapshots are kernel-canonical: the same run checkpointed under the
# reference kernel, cut back to its cycle-500 snapshot and resumed on two
# shards must still match the straight run byte for byte.
"$ROCOSIM" -json -reliable -rate 0.2 -warmup 100 -measure 2000 \
	-faults-at 150 -faultclass noncritical -kernel reference \
	-checkpoint-every 100 -checkpoint-dir "$CKPTDIR/xkernel" >"$CKPTDIR/xkernel.json"
cmp "$CKPTDIR/full.json" "$CKPTDIR/xkernel.json"
for f in "$CKPTDIR"/xkernel/ckpt-*.rocosnap; do
	n="${f##*/ckpt-}"
	if [ "${n%.rocosnap}" -gt 500 ]; then rm "$f"; fi
done
"$ROCOSIM" -json -reliable -rate 0.2 -warmup 100 -measure 2000 \
	-faults-at 150 -faultclass noncritical -shards 2 -workers 2 \
	-resume -checkpoint-dir "$CKPTDIR/xkernel" >"$CKPTDIR/xresumed.json" 2>"$CKPTDIR/xresumed.err"
grep -q 'at cycle 500$' "$CKPTDIR/xresumed.err"
cmp "$CKPTDIR/full.json" "$CKPTDIR/xresumed.json"
# A run checkpointed without telemetry cannot resume under -serve, which
# turns telemetry on: the resume must fail, and its error must name -serve.
"$ROCOSIM" -rate 0.2 -warmup 100 -measure 1000 \
	-checkpoint-every 100 -checkpoint-dir "$CKPTDIR/noserve" >/dev/null
if "$ROCOSIM" -rate 0.2 -warmup 100 -measure 1000 \
	-resume -checkpoint-dir "$CKPTDIR/noserve" -serve 127.0.0.1:0 >/dev/null 2>"$CKPTDIR/serve.err"; then
	echo "check.sh: resuming a telemetry-free checkpoint under -serve succeeded" >&2
	exit 1
fi
grep -q -- '-serve' "$CKPTDIR/serve.err"
# Run modes compose on one Sim: a checkpointed run still prints its traces,
# its heatmap and a nonzero energy split.
"$ROCOSIM" -rate 0.2 -warmup 100 -measure 2000 -trace 2 -heatmap -v \
	-checkpoint-every 100 -checkpoint-dir "$CKPTDIR/composed" >"$CKPTDIR/composed.txt"
grep -q '^Link utilization (flits/link/cycle)' "$CKPTDIR/composed.txt"
grep -q 'energy split: buffers [1-9]' "$CKPTDIR/composed.txt"
grep -q '^pkt ' "$CKPTDIR/composed.txt"
# rocobench parses grid flags as strictly as rocosim: trailing text fails.
if "$TMP/rocobench" -exp table1 -chips 2x2abc -chip-size 2x2 >/dev/null 2>&1; then
	echo "check.sh: rocobench accepted -chips 2x2abc" >&2
	exit 1
fi
# Every CLI rejects bad input with a non-zero exit and its message on
# stderr, never with a panic's goroutine dump: `rejects MSG CMD...` runs
# CMD and checks all three.
rejects() {
	msg="$1"
	shift
	if "$@" >"$TMP/out" 2>"$TMP/err"; then
		echo "check.sh: accepted bad input: $*" >&2
		exit 1
	fi
	grep -q -- "$msg" "$TMP/err"
	if grep -q goroutine "$TMP/out" "$TMP/err"; then
		echo "check.sh: panicked on bad input: $*" >&2
		exit 1
	fi
}
rejects 'XY routing only' "$ROCOSIM" -router pdr -routing adaptive
rejects 'injection rate NaN' "$ROCOSIM" -rate NaN
rejects 'must be positive' "$ROCOSIM" -width 0
rejects 'too small' "$TMP/rocotrace" -telemetry -width 1
rejects '-node 64' "$TMP/rocotrace" -node 64
rejects 'unknown format' "$TMP/rocotrace" -telemetry -format xml
rejects 'too small' "$TMP/rocobench" -exp fig8 -width 1
# Every rocobench experiment runs at smoke scale: -exp all covers the
# paper's tables and figures, and each extension runs by name. Each run
# must exit 0 without a goroutine dump, and the -json files must record
# every figure and every extension under its name.
for exp in all scaling pktsize saturation mpeg degradation; do
	if ! "$TMP/rocobench" -exp "$exp" -warmup 100 -measure 600 -trials 1 -mc 20000 \
		-json "$TMP/$exp.json" >"$TMP/out" 2>&1 || grep -q goroutine "$TMP/out"; then
		echo "check.sh: rocobench -exp $exp failed:" >&2
		cat "$TMP/out" >&2
		exit 1
	fi
done
"$JSONCHECK" table2 fig3 fig8 fig9 fig10 fig11 fig12 fig13 fig14 <"$TMP/all.json"
for exp in scaling pktsize saturation mpeg degradation; do
	"$JSONCHECK" "$exp" <"$TMP/$exp.json"
done
# rocoserve crash-recovery smoke through real processes: submit a job,
# SIGKILL the server mid-run, restart it over the same data directory,
# and the recovered job's result JSON must be byte-identical to one from
# a server nobody killed. servesmoke orchestrates the processes and owns
# its own temp dirs.
go run ./scripts/servesmoke -bin "$TMP/rocoserve"
# The examples are built and vetted by the ./... sweeps above; run the
# observability example too, since it exercises the telemetry API (epoch
# series, heatmap export, live /metrics scrape) end to end.
go run ./examples/observability >/dev/null
# ...and the chiplet example, which drives the multichip topology and the
# D2D-interface fault path end to end through the public API.
go run ./examples/chiplet >/dev/null
