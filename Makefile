GO ?= go

.PHONY: check vet lint build test race bench loc

## check: full gate — vet, lint, build, race-enabled tests (what CI runs)
check:
	bash scripts/check.sh

vet:
	$(GO) vet ./...

## lint: svclint over the whole module — the nine analyzers of
## internal/analysis/all behind invariants I1-I12 (docs/INVARIANTS.md)
lint:
	$(GO) run ./cmd/svclint ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

## bench: benchmark suite -> BENCH_pr<N>.json (N from git; see scripts/bench.sh)
bench:
	bash scripts/bench.sh

## loc: non-test Go lines in the control-plane packages (the size table
## of ROADMAP.md and CHANGES.md)
loc:
	bash scripts/loc.sh
