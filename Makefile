# Developer entry points. Everything is plain `go` underneath.

GO ?= go

.PHONY: all build vet test race bench figures examples clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The per-figure testing.B benchmarks (bounded sweeps).
bench:
	$(GO) test -bench=. -benchmem ./...

# Full figure regeneration (tables of Mops/sec vs threads + extras).
figures:
	$(GO) run ./cmd/poseidon-bench -fig all | tee bench_figures.txt

# Smoke-run every example (each cleans up after itself except the images
# they intentionally leave; remove those).
examples:
	$(GO) run ./examples/quickstart && $(GO) run ./examples/quickstart
	$(GO) run ./examples/kvstore
	$(GO) run ./examples/crash-recovery
	$(GO) run ./examples/txalloc
	$(GO) run ./examples/tasklist "try poseidon" && $(GO) run ./examples/tasklist
	rm -f heap.img tasks.img

clean:
	rm -f heap.img tasks.img test_output.txt bench_output.txt
