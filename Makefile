# FreePhish build and CI entry points. Everything is pure-stdlib Go; the
# only tool required is the go toolchain itself.

GO ?= go

.PHONY: all build test race vet ci bench bench-baseline bench-compare fmt-check verify clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The race-enabled run exercises the observability layer's concurrency
# contract: /metrics scrapes race against the pipeline by design.
race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# ci is the gate: formatting, static analysis, and the full test suite
# under the race detector.
ci: fmt-check vet race

# The byte-identity gates. Each verify-<name> reruns one slice of
# internal/core under -run VERIFY_<name>; `make verify` runs them all.
VERIFY := backends chaos stream journal cascade shards resume remote-shards adoption

# backends: the same seed through the inproc and http backends must yield
# a byte-identical study (the ports-and-adapters boundary).
VERIFY_backends := TestCrossBackendEquivalence
# chaos: a study soaked in the default fault profile (latency, 5xx
# bursts, resets, corrupted bodies) on both backends must be
# byte-identical to the fault-free run.
VERIFY_chaos := TestStudyUnderFaultsDeterministic|TestBlackoutSurvivedAndObserved
# stream: the same seed at every (workers × queue-depth × backend)
# combination must yield a byte-identical study, and a failed poll must
# end the run at once.
VERIFY_stream := TestStudyDeterminismAcrossQueueDepths|TestRunEndsImmediatelyOnPollError
# journal: the same seed must yield a byte-identical event journal at
# every (workers × queue-depth × backend) setting — including soaked in
# the default fault profile — and the journal must agree with the
# study's own records.
VERIFY_journal := TestJournalDeterminism|TestJournalMatchesResultAPI
# cascade: with the cascade on, the same seed must yield byte-identical
# records, journal, and stats at every (workers × queue-depth × backend)
# setting including under chaos, and the degenerate (0,1) cascade must
# reproduce the cascade-off study exactly.
VERIFY_cascade := TestCascadeDeterminism|TestCascadeDegenerateEquivalence
# shards: the same seed split across 1, 2, 4, and 8 sub-stream shards
# must merge into byte-identical records, journal, and stats — across
# backends, with pipeline parallelism inside each shard, under the
# default chaos profile, and through the coordinator's shard-retry path —
# and a shard whose records fail its own world audit must fail its attempt.
VERIFY_shards := TestShardDeterminism|TestShardRetryReplaysExactly|TestShardRetryExhaustionFails|TestShardAuditFailureFailsAttempt
# resume: a run killed at any ordered-apply cut point and resumed from
# its checkpoint must yield byte-identical records, journal, and stats —
# at every worker count, on both backends, under the default chaos
# profile — and a failed shard attempt must be fully closed and surfaced
# (counter + ops event), never leaked.
VERIFY_resume := TestResumeByteIdentical|TestResumeFromCheckpointFile|TestResumeRejectsFingerprintMismatch|TestCheckpointRejectedWithShards|TestShardRetryDoesNotLeak|TestShardCoordinatorFailureClosesSiblings
# remote-shards: shards dispatched to a remote worker daemon over the
# shardrpc wire protocol must yield records, journal, and stats
# byte-identical to in-process dispatch — at shards 2 and 4, on both
# backends, under the default chaos profile — and a dead endpoint must
# fail over to local dispatch through the per-worker circuit breaker.
# Every Config field must travel through the spec (or be allowlisted as
# deployment-only), every study-shaping spec field must move the
# fingerprint, and a spec with an out-of-range shard position must be
# refused.
VERIFY_remote-shards := TestRemoteShardDeterminism|TestWorkerBreakerFailover|TestConfigSpecRoundTrip|TestSpecFingerprintFields|TestSpecRunnerRejectsShardOutOfRange
# adoption: a shard runner killed mid-run (local panic or remote
# connection death) must be replaced by a runner that resumes from the
# dead runner's last streamed checkpoint — never from scratch — and the
# adopted study must be byte-identical to the undisturbed one.
VERIFY_adoption := TestShardAdoptionByteIdentical|TestRemoteShardAdoptionByteIdentical

.PHONY: $(addprefix verify-,$(VERIFY))
verify: $(addprefix verify-,$(VERIFY))

$(addprefix verify-,$(VERIFY)): verify-%:
	$(GO) test ./internal/core -run '$(VERIFY_$*)' -count=1 -v

bench:
	$(GO) test -bench=. -benchmem .

# bench-baseline writes BENCH_obs.json, BENCH_parallel.json,
# BENCH_pipeline.json, BENCH_cascade.json, and BENCH_shard.json —
# machine-readable snapshots of pipeline, metrics-layer, worker-pool,
# barrier-vs-stream, cascade cost/quality, and shard scaling for diffing
# across commits.
bench-baseline:
	BENCH_JSON=BENCH_obs.json $(GO) test -run TestWriteBenchBaseline -v .
	BENCH_PARALLEL_JSON=BENCH_parallel.json $(GO) test -run TestWriteParallelBenchBaseline -v .
	BENCH_PIPELINE_JSON=BENCH_pipeline.json $(GO) test -run TestWriteStreamBenchBaseline -v .
	BENCH_CASCADE_JSON=BENCH_cascade.json $(GO) test -run TestWriteCascadeBenchBaseline -v .
	BENCH_SHARD_JSON=BENCH_shard.json $(GO) test -run TestWriteShardBenchBaseline -v .

# bench-compare diffs a committed baseline against a fresh run written
# to a .new.json path, e.g.
#   BENCH_PIPELINE_JSON=BENCH_pipeline.new.json go test -run TestWriteStreamBenchBaseline .
#   make bench-compare OLD=BENCH_cascade.json NEW=BENCH_cascade.new.json
OLD ?= BENCH_pipeline.json
NEW ?= BENCH_pipeline.new.json
bench-compare:
	$(GO) run ./cmd/benchdiff $(OLD) $(NEW)

# clean removes only untracked outputs: the committed BENCH_obs, _pipeline,
# _cascade and _shard baselines stay.
clean:
	rm -f BENCH_*.new.json BENCH_parallel.json
	$(GO) clean ./...
