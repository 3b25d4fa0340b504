.PHONY: check vet test doccheck bench bench-paper fuzz soak checkresume profile loc

# The pre-merge gate: vet + build + tests + race detector + doc gate +
# the checkpoint-equivalence and rocoserve crash-recovery smokes.
check: vet
	sh scripts/check.sh
	$(MAKE) checkresume

# Static analysis alone (also the first step of check.sh).
vet:
	go vet ./...

# Checkpoint-equivalence smoke under the race detector: periodic
# snapshots must not perturb a run, a resumed run must continue
# bit-identically under either kernel and any shard count, and parking/restarting the worker
# pool around a save must be race-free.
checkresume:
	go test -race -count=1 -run 'TestCheckpointResumeEquivalence|TestCheckpointCrossKernelResume|TestRunCheckpointed' ./internal/network .

test:
	go test ./...

# The documentation gate alone (also part of `make check`): package
# comments, exported-identifier docs, live markdown links, and markdown
# code references that name declared identifiers.
doccheck:
	sh scripts/doccheck.sh

# The end-to-end benchmark (cmd/rocoperf, see its README.md): every
# workload of BENCHMARK.json once at seed 1, 20 s each, each printing its
# metrics and a final JSON line.
bench:
	for w in paper8x8 mesh64_sat mesh128_sparse campaign; do \
		bash cmd/rocoperf/run.sh --workload $$w --seed 1 || exit 1; \
	done

# CPU profile of a saturated 64x64 RoCo run (uniform XY traffic at 0.1
# flits/node/cycle, about 160% of the bisection bound, two shards): the
# configuration of rocoperf's mesh64_sat workload. Writes the profile and
# the rocosim binary under .bench_build/profile/ (git-ignored); inspect with
# `go tool pprof .bench_build/profile/rocosim .bench_build/profile/cpu.pprof`.
PROFILE_DIR = .bench_build/profile
profile:
	mkdir -p $(PROFILE_DIR)
	go build -o $(PROFILE_DIR)/rocosim ./cmd/rocosim
	$(PROFILE_DIR)/rocosim -width 64 -height 64 -router roco -routing xy -traffic uniform \
		-rate 0.1 -shards 2 -warmup 2000 -measure 20000 -cpuprofile $(PROFILE_DIR)/cpu.pprof >/dev/null
	go tool pprof -top -nodecount 15 $(PROFILE_DIR)/rocosim $(PROFILE_DIR)/cpu.pprof

# The paper-table benchmarks at the repository root.
bench-paper:
	go test -bench=. -benchmem .

# Extended fuzzing of the runtime fault-injection path and of the
# snapshot decoders (corrupt payloads behind a valid checksum).
fuzz:
	go test ./internal/network -run '^$$' -fuzz FuzzDynamicFaults -fuzztime 60s
	go test . -run '^$$' -fuzz FuzzSnapshotDecode -fuzztime 60s

# Fault-storm chaos soak: the reliable-delivery protocol under a Poisson
# storm of runtime faults, with the race detector on.
soak:
	go test -race -run 'TestReliable' -count=1 ./internal/network
	go test -race -run 'TestSoakReliableFaultStorm' -count=1 .

# Lines added, removed and net since BASE, split into non-test Go, test Go
# and everything else, from `git diff --numstat` over the tracked and
# staged files (`git add` new files first; binary files count zero).
# PATHS narrows the count, e.g.
#   make loc BASE=<parent> PATHS='internal/router internal/core'
BASE ?= HEAD
PATHS ?=
loc:
	@git diff --numstat $(BASE) -- $(PATHS) | awk -F '\t' '\
		$$1 == "-" { next } \
		{ k = "other" } \
		$$3 ~ /\.go$$/ { k = "non-test Go" } \
		$$3 ~ /_test\.go$$/ { k = "test Go" } \
		{ add[k] += $$1; del[k] += $$2 } \
		END { \
			n = split("non-test Go,test Go,other", ks, ","); \
			for (i = 1; i <= n; i++) \
				printf "%-12s +%-6d -%-6d net %+d\n", ks[i], add[ks[i]], del[ks[i]], add[ks[i]] - del[ks[i]]; \
		}'
