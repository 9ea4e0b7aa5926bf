# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build test test-short test-race test-shard test-quality vet bench smoke-cluster experiments live crowd clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# Race-check the parallel diversity kernel and everything it touches.
test-race:
	$(GO) test -race ./internal/...

# The sharded-engine conservation and determinism properties, repeated
# under the race detector (mirrors the dedicated CI step).
test-shard:
	$(GO) test -race -count 2 ./internal/shard -run 'TestConservationUnderConcurrentChurn|TestOneShardDeterminism'

# The quality layer (aggregation, gold grading, reputation) plus its
# engine/tracker integration properties, under the race detector.
test-quality:
	$(GO) test -race ./internal/quality

# The multi-process cluster smoke: 3 hta-server nodes + a gateway on
# ephemeral ports, churn replay, conservation, clean SIGTERM shutdown.
smoke-cluster:
	$(GO) test ./cmd/hta-server -run TestClusterSmokeMultiProcess -v

bench:
	$(GO) test -run '^$$' -bench=. -benchmem ./...

# Regenerate every offline figure at laptop scale (see EXPERIMENTS.md).
experiments:
	$(GO) run ./cmd/hta-bench -fig 2a
	$(GO) run ./cmd/hta-bench -fig 2b
	$(GO) run ./cmd/hta-bench -fig 2c
	$(GO) run ./cmd/hta-bench -fig 3
	$(GO) run ./cmd/hta-bench -fig obj
	$(GO) run ./cmd/hta-bench -fig bg

# The online study (Figures 5a-5c) with the paper's selection pipeline.
live:
	$(GO) run ./cmd/hta-live -sessions 20 -filtered -chart

# The live deployment over real HTTP with simulated workers.
crowd:
	$(GO) run ./cmd/hta-crowd -workers 8

clean:
	$(GO) clean ./...
