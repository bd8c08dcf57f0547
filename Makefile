# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: build test race bench lint fmt serve vuln

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Run the figure benchmarks (each reproduces one paper figure's headline
# numbers, plus the parallel-pipeline j1/j2/j4/jmax variants), the
# streaming-vs-materialized engine and lint comparisons, the causality
# miss path and archive decode on its own, then distill them into
# BENCH_pipeline.json, the benchmark record tracked across PRs.
bench:
	$(GO) test -run '^$$' -bench 'Fig|AnalyzeStream|AnalyzeSynthetic|LintStream|CausalityStream|StreamDecode' -benchmem -count 1 . | tee bench.out
	python3 scripts/bench_to_json.py bench.out > BENCH_pipeline.json

lint:
	$(GO) vet ./...
	$(GO) build -o perfvarvet ./tools/analyzers/cmd/perfvarvet
	$(GO) vet -vettool=$(PWD)/perfvarvet ./...
	$(GO) test -count=1 ./tools/analyzers/...
	$(GO) run ./cmd/pvtlint testdata/traces/fig2.pvtt testdata/traces/fig3.pvtt

fmt:
	gofmt -w .

# Start the analysis daemon over the checked-in example traces.
serve:
	$(GO) run ./cmd/perfvard -addr :7117 -traces testdata/traces

vuln:
	$(GO) run golang.org/x/vuln/cmd/govulncheck@latest ./...
