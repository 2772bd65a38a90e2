# Developer entry points. CI (.github/workflows/ci.yml) runs the same
# targets; keep the two in sync.

GO ?= go

# Every fuzz target in the tree, as package:Target pairs. go test accepts
# only one -fuzz pattern per package invocation, so fuzz-smoke loops.
FUZZ_TARGETS := \
	./internal/wire:FuzzDecodeRequest \
	./internal/wire:FuzzDecodeResponse \
	./internal/wire:FuzzReadFrame \
	./internal/wire:FuzzDecodeV2Frame \
	./internal/binenc:FuzzReader \
	./internal/binenc:FuzzRoundTrip \
	./internal/meta:FuzzDecodeMetadata \
	./internal/meta:FuzzDecodeTable \
	./internal/meta:FuzzDecodeManifest \
	./internal/meta:FuzzDecodeSuperblock \
	./internal/meta:FuzzDecodeSplitPointer \
	./internal/cap:FuzzOpenView \
	./internal/analysis:FuzzParseAllowDirective \
	./internal/shard:FuzzDecodeRing

FUZZTIME ?= 10s

.PHONY: all build test fmt-check vet vet-self vet-json vet-baseline vet-diff race chaos-smoke fuzz-smoke bench-compare bench-alloc bench-smoke check

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# fmt-check fails when gofmt would change any tracked .go file, or cannot
# parse one. testdata/ is left out: its analyzer fixtures include one
# (brokenload) that does not parse on purpose.
fmt-check:
	@out=$$(git ls-files '*.go' | grep -v '/testdata/' | xargs gofmt -l 2>&1); \
	if [ -n "$$out" ]; then echo "$$out"; echo "fmt-check: gofmt -w the files above"; exit 1; fi

# vet = the stock toolchain vet plus the repo's own invariant analyzers:
# six security analyzers (key leaks, AAD binding, seeded randomness,
# error hygiene, untrusted-input verification, key egress), four
# concurrency analyzers (lock ordering, lock balance, goroutine leaks,
# atomic/plain mixed access), and three error-propagation/lifecycle
# analyzers (errdrop, errwrap, resleak). Runs in baseline-diff mode:
# only findings absent from the committed vet-baseline.json fail the
# build, so legacy debt never blocks unrelated work. Warm runs replay
# unchanged packages from .vet-cache.
vet: vet-diff
	$(GO) vet ./...

# vet-self runs all thirteen sharoes-vet analyzers over the whole module
# and fails on ANY unsuppressed finding (exit 1) or load error (exit 2),
# ignoring the baseline. Bare //sharoes-vet:allow directives (no
# justification) are findings. See docs/ANALYZERS.md for the analyzer
# tables and allow conventions.
vet-self:
	$(GO) run ./cmd/sharoes-vet ./...

# vet-baseline regenerates the committed baseline. Run it after fixing
# or deliberately accepting findings, and commit the result.
vet-baseline:
	$(GO) run ./cmd/sharoes-vet -write-baseline vet-baseline.json ./...

# vet-diff gates on NEW findings only: exit 1 iff the current tree has
# findings not present in vet-baseline.json (line drift is ignored; the
# diff matches on analyzer+file+message).
vet-diff:
	$(GO) run ./cmd/sharoes-vet -baseline vet-baseline.json ./...

# vet-json emits the machine-readable report CI archives as an artifact:
# {"findings": [...], "allows": {analyzer: count}}.
vet-json:
	$(GO) run ./cmd/sharoes-vet -json ./... > vet-findings.json

# race runs the packages with dedicated concurrency stress tests under
# the race detector (internal/analysis for its parallel package loader,
# internal/shard for concurrent quorum ops during live rebalancing and
# the self-heal stress test, internal/ssp and internal/netsim for the
# reconnect re-issue and sever paths).
race:
	$(GO) test -race ./internal/client ./internal/ssp ./internal/cache ./internal/obs ./internal/analysis ./internal/shard ./internal/netsim

# chaos-smoke runs a short fixed-seed chaos campaign — connection drops,
# slow replicas and injected write errors against the 3-shard R=2 W=1
# self-healing stack — under the race detector, then validates the
# machine-readable verdict (checkreport fails a diverged campaign). The
# seed is fixed so a failure replays; see docs/RESILIENCE.md.
CHAOS_SPEC ?= 42,10s,mixed
chaos-smoke:
	$(GO) run -race ./cmd/sharoes-bench -chaos $(CHAOS_SPEC) -json chaos-report.json
	$(GO) run ./cmd/checkreport chaos-report.json

# bench-compare proves the committed artifacts' claims. First the
# transport claim: the parallel pipelined + write-behind run must beat
# the serial run by >=2x effective mean latency on every (figure, op,
# system) row. Then the sharding claim: the 3-shard R=2 run (replicated
# over three SSPs, quorum writes, hedged reads) must stay within 40% of
# the single-backend parallel run — horizontal redundancy at bounded
# cost, not a regression cliff. CI runs both; regenerate all six
# artifacts (docs/OBSERVABILITY.md) after perf work.
bench-compare:
	$(GO) run ./cmd/checkreport -old BENCH_createlist_serial.json -new BENCH_createlist.json -min-speedup 2.0
	$(GO) run ./cmd/checkreport -old BENCH_postmark_serial.json -new BENCH_postmark.json -min-speedup 2.0
	$(GO) run ./cmd/checkreport -old BENCH_createlist.json -new BENCH_createlist_shards.json -max-regress 40%
	$(GO) run ./cmd/checkreport -old BENCH_postmark.json -new BENCH_postmark_shards.json -max-regress 40%
	$(GO) run ./cmd/checkreport -alloc BENCH_alloc.json

# bench-alloc reruns the allocation microbenchmarks and gates them
# against the committed BENCH_alloc.json: allocs/op on the codec hot
# paths may never grow (hard budget ≤ 2), bytes/op may drift 10%.
# Regenerate the baseline with:
#   go test ./internal/ssp -run TestWriteAllocReport -alloc-report
bench-alloc:
	$(GO) test ./internal/ssp -run TestWriteAllocReport -alloc-report -alloc-out $(CURDIR)/current-alloc.json
	$(GO) run ./cmd/checkreport -alloc-old BENCH_alloc.json -alloc-new current-alloc.json

# bench-smoke runs the repository benchmark's own checks. perfbench is its
# own Go module, so the root `go test ./...` never reaches its tests; run
# them, then a short untraced run of each workload. A run exits non-zero
# when any operation fails or returns a wrong result by the workload's
# correctness oracles, or when the final Session.Verify over the SSPs'
# stores reports a problem. The numbers it prints are not gated here.
BENCH_WORKLOADS := createlist-wan postmark-wan share-wan
bench-smoke:
	cd perfbench && $(GO) test ./...
	@for w in $(BENCH_WORKLOADS); do \
		echo "--- perfbench $$w"; \
		python3 perfbench/run.py --workload $$w --seed 1 --seconds 3 --trace 0 || exit 1; \
	done

# fuzz-smoke runs every fuzz target for a short burst — enough to catch
# regressions on the saved corpus plus a little fresh exploration.
fuzz-smoke:
	@for spec in $(FUZZ_TARGETS); do \
		pkg=$${spec%%:*}; target=$${spec##*:}; \
		echo "--- fuzz $$pkg $$target"; \
		$(GO) test $$pkg -run "^$$target$$" -fuzz "^$$target$$" -fuzztime $(FUZZTIME) || exit 1; \
	done

check: build fmt-check vet test race fuzz-smoke
