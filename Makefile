GO ?= go
VET_BIN := bin/divtopk-vet

.PHONY: all build test race bench bench-smoke lint lint-custom vet-tool clean

all: build lint test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# What the race CI job runs: the whole suite under the race detector with
# shuffled test order, so accidental inter-test ordering dependencies and
# data races both surface.
race:
	$(GO) test -race -shuffle=on ./...

# The in-process numbers beside the tracked benchmark: the uncached-query
# pair (cold_paper's inputs, B/op = per-query allocation) and the warm commit
# path (serve_zipf's shape: ms, bytes, answers re-evaluated and carried per
# commit).
bench:
	$(GO) test -run '^$$' -bench 'CommitWarm|Cold' -benchmem .

# bench-smoke is the static and test gate of the tracked benchmark. benchmark/
# is a module of its own (so the root module does not see it): the root
# ./... patterns, `make lint` and `make test` all stop at its go.mod. Its test
# is a 2k-node pass of every workload through the real daemon (~10 s).
bench-smoke:
	@out=$$(gofmt -l benchmark); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	$(GO) vet -C benchmark ./...
	$(GO) test -C benchmark ./...

# vet-tool builds the divtopk-vet binary, the suite's one driver.
# tools/vet is a nested module (so the root module stays dependency-free),
# hence the cd: the root ./... patterns do not reach it.
vet-tool:
	cd tools/vet && $(GO) build -o ../../$(VET_BIN) ./cmd/divtopk-vet

# lint is the single local entry point for every static gate CI enforces:
# formatting, stock go vet, the analyzer suite's own tests (race detector
# on, shuffled), and the divtopk-vet checks (curload, lockhold) over the
# repository AND over the analyzer suite itself, with the per-analyzer
# finding/suppression/stale summary.
# The gofmt sweep skips testdata trees: analyzer corpora are fixtures whose
# layout (want-comment alignment) is part of the test, and their src dirs
# are not packages of any module here.
lint: vet-tool
	@out=$$(find . -path ./bin -prune -o -name '*.go' -not -path '*/testdata/*' -print | xargs gofmt -l); \
		if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...
	cd tools/vet && $(GO) test -race -shuffle=on ./...
	./$(VET_BIN) -summary ./...
	./$(VET_BIN) -summary -dir tools/vet ./...

# lint-custom runs only the divtopk-vet checks (fast inner loop).
lint-custom: vet-tool
	./$(VET_BIN) -summary ./...
	./$(VET_BIN) -summary -dir tools/vet ./...

clean:
	rm -rf bin
