GO ?= go

.PHONY: all build test race bench bench-smoke lint examples paper fuzz

all: build lint test examples

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# What the race CI job runs: the whole suite under the race detector with
# shuffled test order, so accidental inter-test ordering dependencies and
# data races both surface.
race:
	$(GO) test -race -shuffle=on ./...

# The in-process numbers beside the tracked benchmark: the three uncached
# query kinds (cold_paper's inputs, B/op = per-query allocation) and the
# warm commit path (serve_zipf's shape: ms, bytes, answers re-evaluated and
# carried per commit).
bench:
	$(GO) test -run '^$$' -bench 'CommitWarm|Cold' -benchmem .

# fuzz runs each native fuzz target — the decoders of untrusted bytes: binary
# checkpoints, graph and pattern text, WAL records, and the query and update
# JSON bodies through their HTTP handlers; and the SCC routine
# graph.CondenseCSR against brute-force reachability — for 20 s. Their seed
# corpora already run inside `make test`; this explores past them. A
# crashing input is written under the package's testdata/fuzz/ and fails the
# target.
fuzz:
	$(GO) test ./internal/graph -run '^$$' -fuzz '^FuzzReadBinary$$' -fuzztime 20s
	$(GO) test ./internal/graph -run '^$$' -fuzz '^FuzzReadGraph$$' -fuzztime 20s
	$(GO) test ./internal/graph -run '^$$' -fuzz '^FuzzCondenseCSR$$' -fuzztime 20s
	$(GO) test ./internal/pattern -run '^$$' -fuzz '^FuzzReadPattern$$' -fuzztime 20s
	$(GO) test ./internal/wal -run '^$$' -fuzz '^FuzzDecodeRecord$$' -fuzztime 20s
	$(GO) test ./internal/server -run '^$$' -fuzz '^FuzzQueryRequest$$' -fuzztime 20s
	$(GO) test ./internal/server -run '^$$' -fuzz '^FuzzUpdateRequest$$' -fuzztime 20s

# paper runs the reproduction of the paper's §6 (internal/bench) and prints
# its tables: the deterministic claims `make test` already checks, plus the
# wall-clock claims at PAPER_SCALE (small, ~30 s; medium, ~6 min), each the
# median of interleaved repetitions. CI does not run it: wall-clock gates
# need a quiet machine.
PAPER_SCALE ?= small
paper:
	DIVTOPK_PAPER=$(PAPER_SCALE) $(GO) test -count=1 -v -timeout 30m ./internal/bench

# bench-smoke is the static and test gate of the tracked benchmark. benchmark/
# is a module of its own (so the root module does not see it): the root
# ./... patterns and `make test` stop at its go.mod; `make lint` vets it too. Its test
# is a 2k-node pass of every workload through the real daemon (~10 s).
bench-smoke:
	@out=$$(gofmt -l benchmark); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	$(GO) vet -C benchmark ./...
	$(GO) test -C benchmark ./...

# examples runs every program under examples/: they are consumers of the
# facade like cmd/divtopkd and benchmark/, so a facade change that breaks
# one, or makes it fail at run time, fails here (~1 s warm).
examples:
	@for d in examples/*/; do \
		echo "$(GO) run ./$$d"; \
		$(GO) run ./$$d > /dev/null || exit 1; \
	done

# lint is the single local entry point for the static gates CI enforces:
# formatting (benchmark/ included) and stock go vet, of the root module and
# of benchmark/ (a module of its own, so ./... stops at its go.mod). Vetting
# benchmark/ also type-checks it against this tree: some exported names and
# parameters exist only because it compiles against them (ROADMAP item 1
# lists them), and deleting one fails here, not only in bench-smoke (~1 s).
lint:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...
	$(GO) vet -C benchmark ./...
