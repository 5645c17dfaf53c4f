# Tier-1 verification plus a perf-regression canary in one command.
#
#   make          - build + vet + test (tier-1) + bench-check
#   make bench-check - vet, test and smoke-run the nested bench/ module,
#                      which root ./... patterns do not descend into: a
#                      change that breaks the BENCHMARK.json build fails
#                      here instead of staying tier-1 green
#   make loc      - non-test Go line counts, the way ROADMAP's "fewer
#                   lines" targets are measured: internal/engine,
#                   internal/psc, internal/wire, internal/privcount,
#                   cmd, and internal + cmd + tools together
#   make bench-smoke - one iteration of the crypto and protocol
#                      benchmarks; catches gross perf regressions fast
#                      (the group and ciphertext ops print allocs/op, so
#                      a Point that allocates again shows;
#                      BenchmarkPSCRound also prints wire-B/elem, the
#                      round's wire bytes per mixed element, so a
#                      proof-byte regression shows even when time holds;
#                      BenchmarkConnChunkRoundTrip prints MB/s and B/op
#                      for one full PrivCount chunk frame, on the frame
#                      path alone (frame), received through ExpectFunc's
#                      recycled body (expect-func, which should read
#                      about 0 B/op) and through Stream.Send's
#                      encode, frame and receive together (stream-send);
#                      BenchmarkRerandomizeBlock
#                      prints µs/elem and B/op for one 1024-element
#                      shuffle block on one core; BenchmarkObserve
#                      prints allocs/op for one DC item, which must
#                      read 0; BenchmarkFieldOps prints ns/op for field
#                      multiplication, squaring, inversion and square
#                      root on one core, the amd64 kernel beside the
#                      pure-Go bodies)
#   make fuzz-smoke  - every codec fuzz target (frame envelope, mux
#                      control frames, the engine's hello gate, PSC
#                      block messages, PSC
#                      noise/blind/share chunks,
#                      PrivCount share/chunk frames, the compressed point
#                      decoder against crypto/elliptic), the affine batch
#                      plane against the single-element group law, point
#                      addition and scalar multiplication against
#                      crypto/elliptic, the field kernel (square root
#                      included) against the pure-Go field and
#                      math/big, and the -netem profile parser, 5 s
#                      each: the
#                      seed corpus always runs under `make test`; this
#                      also mutates
#   make bench    - the full paper-table benchmark harness (slow)

GO ?= go

.PHONY: all build test vet loc bench-check fuzz-smoke bench-smoke bench

all: build vet test bench-check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

loc:
	@printf '%s: ' 'internal/engine'; find internal/engine -name '*.go' ! -name '*_test.go' | xargs cat | wc -l
	@printf '%s: ' 'internal/psc'; find internal/psc -name '*.go' ! -name '*_test.go' | xargs cat | wc -l
	@printf '%s: ' 'internal/wire'; find internal/wire -name '*.go' ! -name '*_test.go' | xargs cat | wc -l
	@printf '%s: ' 'internal/privcount'; find internal/privcount -name '*.go' ! -name '*_test.go' | xargs cat | wc -l
	@printf '%s: ' 'cmd'; find cmd -name '*.go' ! -name '*_test.go' | xargs cat | wc -l
	@printf '%s: ' 'internal cmd tools'; find internal cmd tools -name '*.go' ! -name '*_test.go' | xargs cat | wc -l

bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...
	bash bench/run.sh -smoke -seconds 1

# go test takes one fuzz target per invocation.
FUZZTIME ?= 5s
fuzz-smoke:
	$(GO) test ./internal/wire/ -run '^$$' -fuzz '^FuzzConnRecv$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/wire/ -run '^$$' -fuzz '^FuzzMuxControl$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/engine/ -run '^$$' -fuzz '^FuzzAcceptHello$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/psc/ -run '^$$' -fuzz '^FuzzBlockOutCodec$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/psc/ -run '^$$' -fuzz '^FuzzBlockShadowCodec$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/psc/ -run '^$$' -fuzz '^FuzzNoiseChunkCodec$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/psc/ -run '^$$' -fuzz '^FuzzBlindChunkCodec$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/psc/ -run '^$$' -fuzz '^FuzzShareChunkCodec$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/privcount/ -run '^$$' -fuzz '^FuzzSharesRelayCodec$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/elgamal/ -run '^$$' -fuzz '^FuzzRerandomizeEquivalence$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/elgamal/ -run '^$$' -fuzz '^FuzzParsePoint$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/elgamal/ -run '^$$' -fuzz '^FuzzAddEquivalence$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/elgamal/ -run '^$$' -fuzz '^FuzzScalarMulEquivalence$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/elgamal/ -run '^$$' -fuzz '^FuzzFieldArith$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/netem/ -run '^$$' -fuzz '^FuzzParseProfile$$' -fuzztime=$(FUZZTIME)

bench-smoke:
	$(GO) test ./internal/elgamal/ -run '^$$' -bench 'BenchmarkGroupOps|BenchmarkCiphertextOps' -benchtime=100x
	$(GO) test ./internal/elgamal/ -run '^$$' -bench 'BenchmarkRerandomizeBlock' -benchtime=20x -cpu 1
	$(GO) test ./internal/elgamal/ -run '^$$' -bench 'BenchmarkFieldOps' -cpu 1
	$(GO) test ./internal/wire/ -run '^$$' -bench 'BenchmarkConnChunkRoundTrip' -benchtime=2000x
	$(GO) test ./internal/psc/ -run '^$$' -bench 'BenchmarkObserve' -benchtime=10000x
	$(GO) test ./internal/psc/ -run '^$$' -bench 'BenchmarkPSCRound/(verified|tcp)/bins-512' -benchtime=1x
	# The 2^16-bin streaming-shuffle round (previously infeasible with
	# the whole-vector shuffle). The bench itself is -short-aware: run
	# `go test -short -bench ...` to skip it in quick local loops.
	$(GO) test ./internal/psc/ -run '^$$' -bench 'BenchmarkPSCRound/stream/bins-65536' -benchtime=1x -timeout=30m

bench:
	$(GO) test -run '^$$' -bench . -benchmem .
