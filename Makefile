# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build test test-short race cover bench bench-ablations bench-go pairs figs serve vet nofma mutate fuzz clean

# Port for `make serve` (override: make serve PORT=9000).
PORT ?= 8080

# Budget per fuzz target for `make fuzz` (override: make fuzz FUZZTIME=5m).
FUZZTIME ?= 30s

all: build test

build:
	$(GO) build ./...
	$(GO) vet ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# Short race pass over everything, plus the full fast-forward
# equivalence tests — and the parked-retry oracles beneath them — so the
# sim hot loop is race-checked end to end, and the warm differentials:
# the LLC replay of one chunk runs beside the private warm of the next.
# The GAP path in full too — the generator oracles, the barrier sources,
# and the graph cache that concurrent jobs share — but not the scale-16
# and -17 generator oracles: `make test` runs those, and the last line
# races the benchmark's scale-16 graph. The arena differentials
# in full: a reused arena must never show in a result. The last three
# lines run the arena and the request-path (spec hash, spec decode)
# benchmarks, the cache's demand and warm kernels, and the controller's
# cycle and the prewarm set-up once, so that they cannot rot, and the
# benchmark's graph generation and CSR build once under the race detector
# on two processors, so the split generator races at full size.
race:
	$(GO) test -race -short ./...
	$(GO) test -race -count=1 -run 'Golden|FastForward' ./internal/sim/
	$(GO) test -race -count=1 -run 'Repeat|Park|FastForward' ./internal/prefetch/ ./internal/cache/ ./internal/cpu/
	$(GO) test -race -count=1 -run 'Warm|Prewarm' ./internal/cache/ ./internal/sim/
	$(GO) test -race -count=1 -short ./internal/graph/ ./internal/gap/
	$(GO) test -race -count=1 -run 'BuildGraph' ./internal/exp/
	$(GO) test -race -count=1 -run 'Arena' ./internal/cache/ ./internal/sim/ ./internal/exp/ ./internal/service/
	$(GO) test -run '^$$' -bench 'RunSpecArena|SpecHash|DecodeSpec' -benchmem -benchtime 1x ./internal/exp/
	$(GO) test -run '^$$' -bench 'Access' -benchtime 1x ./internal/cache/
	$(GO) test -run '^$$' -bench 'ControllerTick|Prewarm' -benchtime 1x .
	$(GO) test -race -run '^$$' -bench 'Kronecker|FromEdges' -benchtime 1x -cpu 2 ./internal/graph/

cover:
	$(GO) test -cover ./internal/...

bench-ablations:
	$(GO) test -run xxx -bench Ablation -benchtime 1x .

# The repository benchmark (benchmark/README.md): every workload for 15 s,
# each record checked against benchmark/golden.json.
bench:
	bash benchmark/run.sh

# The repository benchmark, paired: N (default 10) alternating runs of
# every workload on revision BASE (checked out into a git worktree) and on
# this tree, then `benchmark/run.sh compare` — what a performance claim in
# doc/PERF.md rests on. make pairs BASE=HEAD~1 [N=10]
pairs:
	bash tools/pairs.sh $(BASE) $(N)

# The go-test benchmarks: component micro-benchmarks and ablations.
bench-go:
	$(GO) test -run xxx -bench . -benchmem -benchtime 1x . | tee bench_output.txt

# Build the repo's own analyzer suite (cmd/dramvet) and run it through
# the standard vet driver, exactly like CI. See doc/LINTING.md.
vet:
	$(GO) build -o dramvet ./cmd/dramvet
	$(GO) vet -vettool=$(CURDIR)/dramvet ./...

# Fail when the compiler fuses a floating-point multiply-add anywhere a
# result's bytes come from, on any architecture that can (tools/nofma.sh):
# the results would then depend on GOARCH.
nofma:
	bash tools/nofma.sh

# The mutation catalogue (tools/mutate.sh): apply each patch under
# testdata/mutations to a copy of the tree and require the tests its
# header names, and only those, to fail.
mutate:
	bash tools/mutate.sh

# Run the fuzz targets for FUZZTIME each: the strict spec decoder and the
# canonical encoder (each against its reference implementation, the
# canonical-encoding fixed point, hash determinism), journal recovery
# (corruption is never fatal, torn tails are sealed), the /v1 routes (no
# handler panics, every error is the envelope), and the dramvet
# //dramvet:allow directive parser (no suppression is silently dropped).
fuzz:
	$(GO) test ./internal/exp/ -run FuzzDecodeSpec -fuzz FuzzDecodeSpec -fuzztime $(FUZZTIME)
	$(GO) test ./internal/exp/ -run FuzzSpecCanonical -fuzz FuzzSpecCanonical -fuzztime $(FUZZTIME)
	$(GO) test ./internal/service/ -run FuzzJournalReplay -fuzz FuzzJournalReplay -fuzztime $(FUZZTIME)
	$(GO) test ./internal/service/ -run FuzzV1Routes -fuzz FuzzV1Routes -fuzztime $(FUZZTIME)
	$(GO) test ./internal/analysis/ -run FuzzAllowDirective -fuzz FuzzAllowDirective -fuzztime $(FUZZTIME)

# Build and launch the simulation service (see doc/SERVICE.md).
serve:
	$(GO) build -o dramstacksd ./cmd/dramstacksd
	./dramstacksd -addr :$(PORT)

# Regenerate every figure's data at full scale into results/.
figs:
	$(GO) run ./cmd/paperfigs -fig all -out results

clean:
	rm -rf results bench_output.txt test_output.txt dramstacksd dramvet
