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
# a byte-identical study (the ports-and-adapters boundary), and on both the
# fetch stage must parse each page once for classify and the profile while
# no snapshot probe, the monitor's re-probes included, parses at all.
VERIFY_backends := TestCrossBackendEquivalence|TestFetchStageParsesOnce
# chaos: a study soaked in the default fault profile (latency, 5xx
# bursts, resets, corrupted bodies) on both backends must be
# byte-identical to the fault-free run, and failure faults must reach
# each platform's poll endpoint with poll.<platform> retries recorded;
# the web endpoint must draw the same faults on both backends, with
# fetch.<host> retries recorded, and a web blackout must leave both
# backends with the same study.
VERIFY_chaos := TestStudyUnderFaultsDeterministic|TestBlackoutSurvivedAndObserved|TestChaosReachesEveryPollEndpoint|TestChaosReachesSnapshotSource
# stream: the same seed at every (workers × queue-depth × backend)
# combination must yield a byte-identical study, a failed poll must end
# the run at once, and a study must start its poll and monitor graphs'
# goroutines once, not once per busy cycle, and stop them when Run returns.
VERIFY_stream := TestStudyDeterminismAcrossQueueDepths|TestRunEndsImmediatelyOnPollError|TestLexicalAdmissionSignature
# journal: the same seed must yield a byte-identical event journal at
# every (workers × queue-depth × backend) setting — including soaked in
# the default fault profile — and the journal must agree with the
# study's own records.
VERIFY_journal := TestJournalDeterminism|TestJournalMatchesResultAPI
# cascade: with the cascade on, the same seed must yield byte-identical
# records, journal, and stats at every (workers × queue-depth × backend)
# setting including under chaos, and the reference run must match its
# pinned digest (TestCascadeDeterminism/reference_digest); the degenerate
# (0,1) cascade must reproduce the cascade-off study exactly; and a
# lexical admission must carry the empty page's signature.
VERIFY_cascade := TestCascadeDeterminism|TestCascadeDegenerateEquivalence|TestLexicalAdmissionSignature
# shards: the same seed split across 1, 2, 4, and 8 sub-stream shards
# must merge into byte-identical records, journal, and stats — across
# backends, with pipeline parallelism inside each shard, under the
# default chaos profile, and through the coordinator's shard-retry path —
# and a shard whose records fail its own world audit must fail its attempt.
# A spec runner trains once per training input, whatever the studies'
# windows, chaos, journal, thresholds or shard positions, and every shard
# child times its classify stage into its own histograms.
VERIFY_shards := TestShardDeterminism|TestShardRetryReplaysExactly|TestShardRetryExhaustionFails|TestShardAuditFailureFailsAttempt|TestSpecRunnerTrainsOncePerTrainingInput|TestShardChildrenObserveClassifyStages
# resume: a run killed at any ordered-apply cut point and resumed from
# its checkpoint must yield byte-identical records, journal, and stats —
# at every worker count, on both backends, under the default chaos
# profile; every cut must equal the reference encoding of its checkpoint
# byte for byte — and a failed shard attempt must be fully closed and
# surfaced (counter + ops event), never leaked.
VERIFY_resume := TestResumeByteIdentical|TestCheckpointCutsMatchReference|TestResumeFromCheckpointFile|TestResumeRejectsFingerprintMismatch|TestCheckpointRejectedWithShards|TestShardRetryDoesNotLeak|TestShardCoordinatorFailureClosesSiblings
# remote-shards: shards dispatched to a remote worker daemon over the
# shardrpc wire protocol must yield records, journal, and stats
# byte-identical to in-process dispatch — at shards 2 and 4, on both
# backends, under the default chaos profile — and a dead endpoint must
# fail over to local dispatch through the per-worker circuit breaker.
# Config may declare only the embedded spec and its deployment-only
# hooks, every spec field must survive the wire, every study-shaping spec
# field must move the fingerprint, a spec with every travelling knob set
# must keep its pinned wire and fingerprint bytes, an unsharded run must
# keep its pinned checkpoint fingerprint, and a spec with an out-of-range
# shard position or any oversized knob that sizes work must be refused.
# A spec or adoption checkpoint that still carries the retired
# snapshot_cache_size key must decode, fingerprint the same and run.
VERIFY_remote-shards := TestRemoteShardDeterminism|TestWorkerBreakerFailover|TestConfigSpecRoundTrip|TestSpecFingerprintFields|TestSpecBytesPinned|TestUnshardedFingerprintPinned|TestSpecRunnerRejectsShardOutOfRange|TestSpecRunnerRejectsOversizedSpec|TestRetiredSnapshotCacheSizeDecodes
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
