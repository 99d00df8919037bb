# Convenience targets for the SVR reproduction.

GO ?= go

.PHONY: all test race bench results metrics fuzz vet fmt cover ab

all: vet test

test:
	$(GO) test ./...

# internal/sim alone runs 575-774 s under -race on a 2-CPU box, about
# go test's 10-minute default; the timeout only bounds a hang.
race:
	$(GO) test -race -timeout 30m ./...

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
	$(GO) test -run '^$$' -fuzz FuzzCOWAliasing -fuzztime 15s ./internal/mem/
	$(GO) test -fuzz FuzzRoundTrip -fuzztime 30s ./internal/stream/
	$(GO) test -run '^$$' -fuzz FuzzFastForwardMatchesStep -fuzztime 30s ./internal/stream/
	$(GO) test -run '^$$' -fuzz FuzzArchStateMatchesLive -fuzztime 30s ./internal/stream/
	$(GO) test -run '^$$' -fuzz FuzzCohortChunks -fuzztime 30s ./internal/sim/
	$(GO) test -run '^$$' -fuzz FuzzCacheMatchesReference -fuzztime 30s ./internal/cache/
	$(GO) test -run '^$$' -fuzz FuzzTLBMatchesReference -fuzztime 30s ./internal/cache/
	$(GO) test -run '^$$' -fuzz FuzzSubmitJob -fuzztime 30s ./internal/grid/
	$(GO) test -run '^$$' -fuzz FuzzLoadState -fuzztime 30s ./internal/grid/
	$(GO) test -run '^$$' -fuzz FuzzValidateJournal -fuzztime 30s ./internal/grid/

fmt:
	gofmt -w .

vet:
	$(GO) vet ./...
	test -z "$$(gofmt -l .)"

cover:
	$(GO) test -cover ./internal/...

# A/B comparison with the repository benchmark (bench/README.md, "A/B
# comparisons"): side A is bench/ built from a snapshot of OLD that git
# archive extracts under .bench_build/, side B from the working tree.
# Each seed is one pair, the side that runs first alternating; each
# run's last line goes to A.jsonl or B.jsonl, then compare prints its
# verdicts. Held-out seeds:
#   make ab OLD=<rev> WORKLOAD=<name> SEEDS="60 61 62 63 64 65 66 67 68 69"
SEEDS ?= 40 41 42 43 44 45 46 47 48 49
AB_OLD := .bench_build/ab-old

ab:
	@test -n "$(OLD)" -a -n "$(WORKLOAD)" || { echo 'usage: make ab OLD=<rev> WORKLOAD=<name> [SEEDS="..."]' >&2; exit 2; }
	rm -rf $(AB_OLD) && mkdir -p $(AB_OLD)
	git archive $(OLD) | tar -x -C $(AB_OLD)
	rm -f A.jsonl B.jsonl
	i=0; for s in $(SEEDS); do \
		order="A B"; [ $$((i % 2)) -eq 1 ] && order="B A"; \
		for side in $$order; do \
			dir=.; [ $$side = A ] && dir=$(AB_OLD); \
			(cd $$dir && bash bench/run.sh --workload $(WORKLOAD) --seed $$s) > .bench_build/ab-run.out || exit 1; \
			tail -n 1 .bench_build/ab-run.out >> $$side.jsonl; \
		done; i=$$((i + 1)); \
	done
	rm -rf $(AB_OLD)
	.bench_build/bench compare -workload $(WORKLOAD) A.jsonl B.jsonl
