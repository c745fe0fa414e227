# Convenience targets; everything is plain `go` underneath.

.PHONY: all build test test-short bench cover report figures examples vet lint

all: build lint test

build:
	go build ./...

vet:
	go vet ./...

# Static analysis: go vet plus the project's determinism and
# simulation-safety analyzers (see docs/LINTING.md).
lint: vet
	go run ./cmd/mrlint ./...

test:
	go test ./...

test-short:
	go test -short ./...

# The repository's benchmark: every workload of BENCHMARK.json, run
# and checked against its golden digest (see cmd/mrbench/README.md).
bench:
	bash cmd/mrbench/run.sh

cover:
	go test ./internal/... -coverprofile=cover.out
	go tool cover -func=cover.out | tail -1

# Regenerate every paper artifact as text.
figures:
	go run ./cmd/mrexperiments -run all

# Self-contained HTML report with SVG charts.
report:
	go run ./cmd/mrexperiments -html report.html

examples:
	go run ./examples/quickstart
	go run ./examples/expedited
	go run ./examples/singlerun
	go run ./examples/multitenant
	go run ./examples/whatif
	go run ./examples/hotspot
