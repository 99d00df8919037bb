# Convenience targets for the SVR reproduction.

GO ?= go

.PHONY: all test race bench results metrics fuzz vet fmt cover

all: vet test

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# Regenerate every table and figure at full scale into results_full.txt,
# and the same cells machine-readably (per-cell registry snapshots) into
# results_metrics.json. These outputs are derived artifacts — they are
# gitignored, not committed; this target is how you (re)produce them.
results:
	$(GO) run ./cmd/svrsim all | tee results_full.txt
	$(GO) run ./cmd/svrsim all -metrics > results_metrics.json

# Quick-scale headline figure with the full per-cell metric snapshots
# (counters + latency histograms) as JSON on stdout.
metrics:
	$(GO) run ./cmd/svrsim run fig1 -quick -metrics

fuzz:
	$(GO) test -fuzz FuzzParse -fuzztime 30s ./internal/isa/
	$(GO) test -fuzz FuzzInstrString -fuzztime 15s ./internal/isa/
	$(GO) test -fuzz FuzzReadWrite -fuzztime 15s ./internal/mem/
	$(GO) test -fuzz FuzzRoundTrip -fuzztime 30s ./internal/stream/
	$(GO) test -run '^$$' -fuzz FuzzCacheMatchesReference -fuzztime 30s ./internal/cache/
	$(GO) test -run '^$$' -fuzz FuzzTLBMatchesReference -fuzztime 30s ./internal/cache/
	$(GO) test -run '^$$' -fuzz FuzzSubmitJob -fuzztime 30s ./internal/grid/

fmt:
	gofmt -w .

vet:
	$(GO) vet ./...
	test -z "$$(gofmt -l .)"

cover:
	$(GO) test -cover ./internal/...
