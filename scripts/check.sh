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
# Smoke the CLI's JSON output: a tiny reliable run under a fault must emit
# parseable JSON with the reliability counters present.
go run ./cmd/rocosim -json -reliable -rate 0.2 -warmup 200 -measure 2000 \
	-faults-at 150 -faultclass noncritical -audit 64 \
	| go run ./scripts/jsoncheck ResidualLoss Retransmissions GiveUps Watchdog FaultEvents
# Telemetry smoke: an epoch-sampled run must emit the Telemetry series in
# its JSON result, and the rocotrace exporter must produce a CSV with a
# header plus at least one epoch row.
go run ./cmd/rocosim -json -telemetry-every 128 -rate 0.2 -warmup 200 -measure 2000 \
	| go run ./scripts/jsoncheck Telemetry AvgLatency Completion
TELECSV="$(mktemp)"
trap 'rm -f "$TELECSV"' EXIT
go run ./cmd/rocotrace -telemetry -width 4 -height 4 -warmup 100 -measure 800 -every 64 -format csv >"$TELECSV"
test "$(wc -l <"$TELECSV")" -gt 2
# Shard-equivalence smoke: the same 4x4 run sharded and sequential must
# emit byte-identical JSON — telemetry epochs included, since the sampled
# stream is part of the kernel-independence contract.
SHARD1="$(mktemp)"
SHARD2="$(mktemp)"
trap 'rm -f "$TELECSV" "$SHARD1" "$SHARD2"' EXIT
go run ./cmd/rocosim -json -width 4 -height 4 -rate 0.2 -warmup 100 -measure 800 -audit 32 -telemetry-every 128 -shards 1 >"$SHARD1"
go run ./cmd/rocosim -json -width 4 -height 4 -rate 0.2 -warmup 100 -measure 800 -audit 32 -telemetry-every 128 -shards 2 >"$SHARD2"
cmp "$SHARD1" "$SHARD2"
# Kernel-equivalence smoke: the activity-gated kernel must emit
# byte-identical JSON to the reference kernel on the same faulted,
# telemetry-sampled run (DESIGN.md 4b).
KERNREF="$(mktemp)"
KERNGATED="$(mktemp)"
trap 'rm -f "$TELECSV" "$SHARD1" "$SHARD2" "$KERNREF" "$KERNGATED"' EXIT
go run ./cmd/rocosim -json -width 4 -height 4 -rate 0.2 -warmup 100 -measure 800 -audit 32 -telemetry-every 128 \
	-faults-at 150 -faultclass noncritical -kernel reference >"$KERNREF"
go run ./cmd/rocosim -json -width 4 -height 4 -rate 0.2 -warmup 100 -measure 800 -audit 32 -telemetry-every 128 \
	-faults-at 150 -faultclass noncritical -kernel gated >"$KERNGATED"
cmp "$KERNREF" "$KERNGATED"
# Chiplet smoke: a multichip run with a runtime D2D-interface fault must
# emit parseable JSON with the boundary-link counters, and its gated-kernel
# twin must be byte-identical (the D2D pipes are part of the
# kernel-independence contract).
CHIPREF="$(mktemp)"
CHIPGATED="$(mktemp)"
trap 'rm -f "$TELECSV" "$SHARD1" "$SHARD2" "$KERNREF" "$KERNGATED" "$CHIPREF" "$CHIPGATED"' EXIT
go run ./cmd/rocosim -json -topology multichipmesh -chips 2x2 -chip-size 4x4 \
	-d2d-class serial -reliable -rate 0.15 -warmup 100 -measure 1500 -audit 32 \
	-d2d-fault 0:east@800 -kernel reference >"$CHIPREF"
go run ./scripts/jsoncheck D2DFlits D2DEnergyNJ GiveUps FaultEvents <"$CHIPREF"
go run ./cmd/rocosim -json -topology multichipmesh -chips 2x2 -chip-size 4x4 \
	-d2d-class serial -reliable -rate 0.15 -warmup 100 -measure 1500 -audit 32 \
	-d2d-fault 0:east@800 -kernel gated >"$CHIPGATED"
cmp "$CHIPREF" "$CHIPGATED"
# Kernel equivalence where most routers sleep: the smokes above run dense
# grids, so sleep and wake are barely exercised there. A sparse 32x32
# mesh with a runtime fault, and a sparse 2x2 grid of 8x8 chiplets with a
# D2D-interface fault, each run under the reference kernel, the default
# gated kernel and three shards on two workers, must emit byte-identical
# JSON (the six runs take about 4.5 s on 2 CPUs).
SPARSE="$(mktemp -d)"
trap 'rm -f "$TELECSV" "$SHARD1" "$SHARD2" "$KERNREF" "$KERNGATED" "$CHIPREF" "$CHIPGATED"; rm -rf "$SPARSE"' EXIT
sparse() {
	name="$1"
	shift
	go run ./cmd/rocosim "$@" -kernel reference >"$SPARSE/$name.ref"
	go run ./cmd/rocosim "$@" >"$SPARSE/$name.gated"
	go run ./cmd/rocosim "$@" -shards 3 -workers 2 >"$SPARSE/$name.sharded"
	cmp "$SPARSE/$name.ref" "$SPARSE/$name.gated"
	cmp "$SPARSE/$name.ref" "$SPARSE/$name.sharded"
}
sparse mesh -json -width 32 -height 32 -rate 0.004 -warmup 100 -measure 2000 -audit 16 \
	-telemetry-every 128 -faults-at 150 -faultclass noncritical
sparse chiplet -json -topology multichipmesh -chips 2x2 -chip-size 8x8 -d2d-class serial \
	-reliable -rate 0.01 -warmup 100 -measure 1500 -audit 16 -d2d-fault 0:east@800
# Checkpoint/resume round-trip: the same reliable faulted run straight
# through, with periodic snapshots, and interrupted-then-resumed must all
# emit byte-identical JSON — snapshots never perturb a run, and a resumed
# run is indistinguishable from one that never stopped.
CKPTDIR="$(mktemp -d)"
trap 'rm -f "$TELECSV" "$SHARD1" "$SHARD2" "$KERNREF" "$KERNGATED" "$CHIPREF" "$CHIPGATED"; rm -rf "$SPARSE" "$CKPTDIR"' EXIT
go run ./cmd/rocosim -json -reliable -rate 0.2 -warmup 100 -measure 2000 \
	-faults-at 150 -faultclass noncritical >"$CKPTDIR/full.json"
go run ./cmd/rocosim -json -reliable -rate 0.2 -warmup 100 -measure 2000 \
	-faults-at 150 -faultclass noncritical -trace 3 \
	-checkpoint-every 100 -checkpoint-dir "$CKPTDIR/snaps" >"$CKPTDIR/ckpt.json"
cmp "$CKPTDIR/full.json" "$CKPTDIR/ckpt.json"
go run ./cmd/rocosim -json -reliable -rate 0.2 -warmup 100 -measure 2000 \
	-faults-at 150 -faultclass noncritical \
	-resume -checkpoint-dir "$CKPTDIR/snaps" >"$CKPTDIR/resumed.json"
cmp "$CKPTDIR/full.json" "$CKPTDIR/resumed.json"
# Snapshots are kernel-canonical: the same run checkpointed under the
# reference kernel, cut back to its cycle-500 snapshot and resumed on two
# shards must still match the straight run byte for byte.
go run ./cmd/rocosim -json -reliable -rate 0.2 -warmup 100 -measure 2000 \
	-faults-at 150 -faultclass noncritical -kernel reference \
	-checkpoint-every 100 -checkpoint-dir "$CKPTDIR/xkernel" >"$CKPTDIR/xkernel.json"
cmp "$CKPTDIR/full.json" "$CKPTDIR/xkernel.json"
for f in "$CKPTDIR"/xkernel/ckpt-*.rocosnap; do
	n="${f##*/ckpt-}"
	if [ "${n%.rocosnap}" -gt 500 ]; then rm "$f"; fi
done
go run ./cmd/rocosim -json -reliable -rate 0.2 -warmup 100 -measure 2000 \
	-faults-at 150 -faultclass noncritical -shards 2 -workers 2 \
	-resume -checkpoint-dir "$CKPTDIR/xkernel" >"$CKPTDIR/xresumed.json" 2>"$CKPTDIR/xresumed.err"
grep -q 'at cycle 500$' "$CKPTDIR/xresumed.err"
cmp "$CKPTDIR/full.json" "$CKPTDIR/xresumed.json"
# A run checkpointed without telemetry cannot resume under -serve, which
# turns telemetry on: the resume must fail, and its error must name -serve.
go run ./cmd/rocosim -rate 0.2 -warmup 100 -measure 1000 \
	-checkpoint-every 100 -checkpoint-dir "$CKPTDIR/noserve" >/dev/null
if go run ./cmd/rocosim -rate 0.2 -warmup 100 -measure 1000 \
	-resume -checkpoint-dir "$CKPTDIR/noserve" -serve 127.0.0.1:0 >/dev/null 2>"$CKPTDIR/serve.err"; then
	echo "check.sh: resuming a telemetry-free checkpoint under -serve succeeded" >&2
	exit 1
fi
grep -q -- '-serve' "$CKPTDIR/serve.err"
# Run modes compose on one Sim: a checkpointed run still prints its traces,
# its heatmap and a nonzero energy split.
go run ./cmd/rocosim -rate 0.2 -warmup 100 -measure 2000 -trace 2 -heatmap -v \
	-checkpoint-every 100 -checkpoint-dir "$CKPTDIR/composed" >"$CKPTDIR/composed.txt"
grep -q '^Link utilization (flits/link/cycle)' "$CKPTDIR/composed.txt"
grep -q 'energy split: buffers [1-9]' "$CKPTDIR/composed.txt"
grep -q '^pkt ' "$CKPTDIR/composed.txt"
# rocobench parses grid flags as strictly as rocosim: trailing text fails.
if go run ./cmd/rocobench -exp table1 -chips 2x2abc -chip-size 2x2 >/dev/null 2>&1; then
	echo "check.sh: rocobench accepted -chips 2x2abc" >&2
	exit 1
fi
# Every CLI rejects bad input with a non-zero exit and its message on
# stderr, never with a panic's goroutine dump: `rejects MSG CMD...` runs
# CMD and checks all three.
BADIN="$(mktemp -d)"
trap 'rm -f "$TELECSV" "$SHARD1" "$SHARD2" "$KERNREF" "$KERNGATED" "$CHIPREF" "$CHIPGATED"; rm -rf "$SPARSE" "$CKPTDIR" "$BADIN"' EXIT
for cli in rocosim rocotrace rocobench; do
	go build -o "$BADIN/$cli" ./cmd/$cli
done
rejects() {
	msg="$1"
	shift
	if "$@" >"$BADIN/out" 2>"$BADIN/err"; then
		echo "check.sh: accepted bad input: $*" >&2
		exit 1
	fi
	grep -q -- "$msg" "$BADIN/err"
	if grep -q goroutine "$BADIN/out" "$BADIN/err"; then
		echo "check.sh: panicked on bad input: $*" >&2
		exit 1
	fi
}
rejects 'XY routing only' "$BADIN/rocosim" -router pdr -routing adaptive
rejects 'injection rate NaN' "$BADIN/rocosim" -rate NaN
rejects 'must be positive' "$BADIN/rocosim" -width 0
rejects 'too small' "$BADIN/rocotrace" -telemetry -width 1
rejects '-node 64' "$BADIN/rocotrace" -node 64
rejects 'unknown format' "$BADIN/rocotrace" -telemetry -format xml
rejects 'too small' "$BADIN/rocobench" -exp fig8 -width 1
# Every rocobench experiment runs at smoke scale: -exp all covers the
# paper's tables and figures, and each extension runs by name. Each run
# must exit 0 without a goroutine dump, and the -json files must record
# every figure and every extension under its name.
for exp in all scaling pktsize saturation mpeg degradation; do
	if ! "$BADIN/rocobench" -exp "$exp" -warmup 100 -measure 600 -trials 1 -mc 20000 \
		-json "$BADIN/$exp.json" >"$BADIN/out" 2>&1 || grep -q goroutine "$BADIN/out"; then
		echo "check.sh: rocobench -exp $exp failed:" >&2
		cat "$BADIN/out" >&2
		exit 1
	fi
done
go run ./scripts/jsoncheck table2 fig3 fig8 fig9 fig10 fig11 fig12 fig13 fig14 <"$BADIN/all.json"
for exp in scaling pktsize saturation mpeg degradation; do
	go run ./scripts/jsoncheck "$exp" <"$BADIN/$exp.json"
done
# rocoserve crash-recovery smoke through real processes: submit a job,
# SIGKILL the server mid-run, restart it over the same data directory,
# and the recovered job's result JSON must be byte-identical to one from
# a server nobody killed. servesmoke orchestrates the processes and owns
# its own temp dirs.
SERVEBIN="$(mktemp -d)"
trap 'rm -f "$TELECSV" "$SHARD1" "$SHARD2" "$KERNREF" "$KERNGATED" "$CHIPREF" "$CHIPGATED"; rm -rf "$SPARSE" "$CKPTDIR" "$BADIN" "$SERVEBIN"' EXIT
go build -o "$SERVEBIN/rocoserve" ./cmd/rocoserve
go run ./scripts/servesmoke -bin "$SERVEBIN/rocoserve"
# The examples are built and vetted by the ./... sweeps above; run the
# observability example too, since it exercises the telemetry API (epoch
# series, heatmap export, live /metrics scrape) end to end.
go run ./examples/observability >/dev/null
# ...and the chiplet example, which drives the multichip topology and the
# D2D-interface fault path end to end through the public API.
go run ./examples/chiplet >/dev/null
