GO ?= go

.PHONY: check vet lint build test race bench loc

## check: full gate — vet, lint, build, race-enabled tests (what CI runs)
check:
	bash scripts/check.sh

vet:
	$(GO) vet ./...

## lint: project invariant analyzers (lockcheck, journalseam,
## determinism, floatcmp, snapshotro) over the whole module
lint:
	$(GO) run ./cmd/svclint ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

## bench: allocator benchmark suite, writes BENCH_pr1.json
bench:
	bash scripts/bench.sh

## loc: non-test Go lines in the control-plane packages (the size table
## of ROADMAP.md and CHANGES.md)
loc:
	bash scripts/loc.sh
