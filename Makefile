# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build vet test test-short race check lint experiments-smoke serve-smoke cluster-smoke train-smoke cover fuzz clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Skips the tests that pretrain models (seconds instead of minutes).
test-short:
	$(GO) test -short ./...

# Data-race detection over the short suite (parallel loops, stream
# pipeline, telemetry registry).
race:
	$(GO) test -race -short ./...

# The full pre-commit gate: compile, vet, project lint, race-check,
# test. Speed is measured by perfbench (see perfbench/README.md).
check: build vet lint race test-short

# The project's own static-analysis suite (cmd/fillvoid-lint): ten
# typed checks over every package — four of them interprocedural
# dataflow (taintalloc, lockheld, goroleak, staleallow) — gated on the
# committed baseline of grandfathered findings (empty; keep it that
# way). Exit 1 on any new finding or when the run blows the wall-time
# budget.
lint:
	$(GO) run ./cmd/fillvoid-lint -baseline lint.baseline.json -max-wall 30s

# Fast end-to-end sanity pass over every experiment.
experiments-smoke:
	$(GO) run ./cmd/experiments -exp all -scale tiny -quiet

# The three smoke targets drive a built binary through scripts/smoke,
# one scenario each; every scenario runs under a deadline and names the
# step that hung.
#
# serve: boots `fillvoid serve` on an ephemeral port, uploads a cloud,
# runs two ROI reconstructions (the second must hit the plan cache),
# checks /healthz, and SIGTERMs for a graceful drain.
serve-smoke:
	$(GO) build -o fillvoid.smoke ./cmd/fillvoid
	$(GO) run ./scripts/smoke -bin ./fillvoid.smoke serve
	rm -f fillvoid.smoke

# cluster: boots three replicas joined by -peers plus a standalone
# reference, uploads the same cloud to both worlds, and asserts a
# fanned-out full-grid reconstruction is bit-identical to the standalone
# answer.
cluster-smoke:
	$(GO) build -o fillvoid.smoke ./cmd/fillvoid
	$(GO) run ./scripts/smoke -bin ./fillvoid.smoke cluster
	rm -f fillvoid.smoke

# train: boots `fillvoid serve -jobs-dir`, trains a fixed-seed job to
# completion for reference, re-runs it in a fresh jobs dir, SIGTERMs the
# server mid-job, restarts on the same dir, and asserts the resumed job
# finishes with the reference (bit-identical) model id, then
# reconstructs by model_id.
train-smoke:
	$(GO) build -o fillvoid.smoke ./cmd/fillvoid
	$(GO) run ./scripts/smoke -bin ./fillvoid.smoke train
	rm -f fillvoid.smoke

# Per-package coverage with hard floors on the inference hot path:
# internal/recon is the one execution path every method runs through;
# kdtree/nn/features/mathutil carry the fused batch pipeline's
# bit-identity and zero-alloc contracts; core's floor is lower because
# its training half is exercised only outside -short; analysis holds
# the lint suite's dataflow engine to the same bar as the code it
# guards; telemetry's spans and traces are what every time claim reads.
COVER_FLOORS = internal/recon:80 internal/kdtree:85 internal/nn:85 \
	internal/features:85 internal/mathutil:85 internal/core:40 \
	internal/analysis:80 internal/telemetry:80

cover:
	$(GO) test -short -cover -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -1
	@for pf in $(COVER_FLOORS); do \
		pkg=$${pf%:*}; floor=$${pf#*:}; \
		$(GO) test -short -cover ./$$pkg/ | \
		awk -v pkg="$$pkg" -v floor="$$floor" \
			'{ for (i = 1; i <= NF; i++) if ($$i == "coverage:") pct = substr($$(i+1), 1, length($$(i+1))-1) } \
			END { if (pct == "") { printf "cover: no coverage reported for %s\n", pkg; exit 1 } \
			printf "%s coverage: %s%% (floor %s%%)\n", pkg, pct, floor; \
			if (pct + 0 < floor + 0) { printf "cover: %s below %s%% floor\n", pkg, floor; exit 1 } }' \
		|| exit 1; \
	done

# Native-fuzzing smoke pass: each target runs for 10s on top of the
# committed seed corpora in testdata/fuzz (go's fuzzer only takes one
# package per invocation, hence one line per target). FUZZTIME=2m for a
# longer local session.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzDecode -fuzztime=$(FUZZTIME) ./internal/codec
	$(GO) test -run='^$$' -fuzz=FuzzReconstructRequest -fuzztime=$(FUZZTIME) ./internal/server
	$(GO) test -run='^$$' -fuzz=FuzzTrainRequest -fuzztime=$(FUZZTIME) ./internal/server
	$(GO) test -run='^$$' -fuzz=FuzzF16RoundTrip -fuzztime=$(FUZZTIME) ./internal/mathutil
	$(GO) test -run='^$$' -fuzz=FuzzLoadModel -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run='^$$' -fuzz=FuzzResumeState -fuzztime=$(FUZZTIME) ./internal/nn
	$(GO) test -run='^$$' -fuzz=FuzzKNearest -fuzztime=$(FUZZTIME) ./internal/kdtree
	$(GO) test -run='^$$' -fuzz=FuzzNearestTable -fuzztime=$(FUZZTIME) ./internal/recon
	$(GO) test -run='^$$' -fuzz=FuzzNeighbors -fuzztime=$(FUZZTIME) ./internal/recon

clean:
	rm -f cover.out test_output.txt fillvoid.smoke
