# IBBE-SGX reproduction — the targets CI runs are the targets humans run.

GO ?= go

.PHONY: all build build-arm64 vet fmt test short test-386 race bench bench-smoke fuzz benchdiff loc ci

all: build

## build: compile every package and command
build:
	$(GO) build ./...

## build-arm64: cross-compile for arm64, so the file set without assembly (Go field kernels and row scan
# only) keeps building and vetting; go vet on the host covers the amd64 assembly (asmdecl, framepointer)
build-arm64:
	GOARCH=arm64 $(GO) build ./...
	GOARCH=arm64 $(GO) vet ./internal/ff/... ./internal/curve/...

## vet: static analysis
vet:
	$(GO) vet ./...

## fmt: fail if any file needs gofmt
fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

## test: the full suite, including integration and property sweeps
test:
	$(GO) test ./...

## short: the fast local suite (slow sweeps are Short-guarded); CI's test job runs the full suite, make test
short:
	$(GO) test -short ./...

## test-386: the crypto stack and its callers on a 32-bit build, so neither the field kernels nor a limb
# conversion can assume a 64-bit big.Word
test-386:
	GOARCH=386 $(GO) test -short ./internal/ff/... ./internal/curve/... ./internal/pairing/... ./internal/ibbe/... ./internal/enclave/... ./internal/core/...

## race: race detector over the concurrent layers (core manager, admin, cluster, client, membership, obs, storage), the crypto substrate and the ibbe-cluster gateway — the package list CI's race step runs
race:
	$(GO) test -race ./internal/core/... ./internal/admin/... ./internal/enclave/... ./internal/cluster/... ./internal/client/... ./internal/membership/... ./internal/obs/... ./internal/dkg/... ./internal/storage/... ./internal/partition/... ./internal/ff/... ./internal/curve/... ./internal/pairing/... ./internal/ibbe/... ./cmd/ibbe-cluster/...

## bench: one pass over every benchmark (smoke; use cmd/ibbe-bench for figures)
bench:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...

## bench-smoke: the frozen repository benchmark (bench/) still compiles against the product and runs clean
# on both store paths — untraced (native commit), traced (its decorator forces the chain) — and on a paged
# group, where removals re-wrap from the resident header and rehydrate only the page that lost a member; a
# failed op or a correctness violation exits non-zero
bench-smoke:
	$(GO) vet ./bench
	$(GO) run ./bench -workload cloud_routed -seconds 3 -trace 0
	$(GO) run ./bench -workload cloud_routed -seconds 3 -trace 1
	$(GO) run ./bench -workload big_group_paged -seconds 3 -trace 0
	$(GO) run ./bench -workload big_group_paged -seconds 3 -trace 1

## fuzz: the 15s smokes CI runs — Montgomery limb core vs big.Int, the limb identity hash and its Barrett
# reducer vs the big.Int reference, the public-key multi-exp table and
# limb w-NAF recoding vs the binary ladder and the big.Int recoding, the 8-lane IFMA field kernels vs the
# scalar Montgomery kernels (skipped without IFMA), the constant-time fixed-base walk vs
# ScalarMultReduced, the /v1/commit request decoder, the durable store's log replay, the
# three decoders of a group directory (partition record, also against its map-per-name reference; group
# header; directory bucket), the limb point decoder vs big.Int, the group index
# under random operations vs the map-and-sort encoders it replaced, and the membership record
fuzz:
	$(GO) test -run='^$$' -fuzz='^FuzzMontFieldVsBigInt$$' -fuzztime=15s ./internal/ff
	$(GO) test -run='^$$' -fuzz='^FuzzHashID$$' -fuzztime=15s ./internal/ibbe
	$(GO) test -run='^$$' -fuzz='^FuzzMultiExpTable$$' -fuzztime=15s ./internal/curve
	$(GO) test -run='^$$' -fuzz='^FuzzLaneMulVsMont$$' -fuzztime=15s ./internal/ff
	$(GO) test -run='^$$' -fuzz='^FuzzMulConstTimeEach$$' -fuzztime=15s ./internal/curve
	$(GO) test -run='^$$' -fuzz='^FuzzCommitRequest$$' -fuzztime=15s ./internal/storage
	$(GO) test -run='^$$' -fuzz='^FuzzOpenMemStoreLog$$' -fuzztime=15s ./internal/storage
	$(GO) test -run='^$$' -fuzz='^FuzzUnmarshalRecord$$' -fuzztime=15s ./internal/core
	$(GO) test -run='^$$' -fuzz='^FuzzPointUnmarshal$$' -fuzztime=15s ./internal/curve
	$(GO) test -run='^$$' -fuzz='^FuzzUnmarshalIndex$$' -fuzztime=15s ./internal/partition
	$(GO) test -run='^$$' -fuzz='^FuzzUnmarshalBucket$$' -fuzztime=15s ./internal/partition
	$(GO) test -run='^$$' -fuzz='^FuzzIndexOps$$' -fuzztime=15s ./internal/partition
	$(GO) test -run='^$$' -fuzz='^FuzzLoadRecord$$' -fuzztime=15s ./internal/membership

## benchdiff: the gated scenarios. The crypto run at type-a-512 (paper width, where the 8-limb kernels
# run) is compared against the committed BENCH_crypto.json; readpath and millionuser check their own
# exact properties and exit non-zero when one fails
benchdiff:
	$(GO) run ./cmd/ibbe-bench -scale paper -json BENCH_crypto.fresh.json crypto
	$(GO) run ./cmd/benchdiff -old BENCH_crypto.json -new BENCH_crypto.fresh.json -max-regress 0.15
	$(GO) run ./cmd/ibbe-bench -json BENCH_readpath.fresh.json readpath
	$(GO) run ./cmd/ibbe-bench -json BENCH_millionuser.fresh.json millionuser

## loc: non-test Go code lines per package, blank and comment-only lines excluded — the figure a
# simplicity change reports as net LOC; not part of ci
loc:
	@find . -name '*.go' ! -name '*_test.go' | LC_ALL=C sort | xargs awk ' \
		FNR == 1 { blk = 0 } \
		{ s = $$0; sub(/^[ \t]+/, "", s) } \
		blk { if (index(s, "*/")) blk = 0; next } \
		s == "" || s ~ /^\/\// { next } \
		s ~ /^\/\*/ { if (!index(s, "*/")) blk = 1; next } \
		{ d = FILENAME; sub(/\/[^\/]*$$/, "", d); n[d]++; total++ } \
		END { for (d in n) printf "%7d  %s\n", n[d], d | "LC_ALL=C sort -k2"; close("LC_ALL=C sort -k2"); printf "%7d  total\n", total }'

## ci: everything the workflow gates on
ci: build build-arm64 vet fmt test race
