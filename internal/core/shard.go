package core

import (
	"time"

	"freephish/internal/analysis"
	"freephish/internal/obs"
	"freephish/internal/par"
	"freephish/internal/state"
)

// Sharded execution. With Config.Shards = N > 1, the coordinator trains
// the models once, then fans the study out over N child frameworks. Each
// child is a complete FreePhish — its own clock, simulated world,
// loopback servers (on the http backend), pipe graphs, retry policy, and
// chaos injector — that runs the full poll schedule over one residue
// class of the posting schedule's global event ordinals. Partitioning is
// sound because every stateful draw in the world is keyed: posting
// events draw from per-ordinal RNG streams, assessments and reporting
// from per-URL streams, so an event produces identical outcomes no
// matter which shard executes it. The coordinator merges the shards'
// state snapshots (internal/state) and rebuilds the canonical journal —
// records, journal, and stats are byte-identical to the 1-shard run.

// shardAttempts is how many times the coordinator dispatches a failed
// shard before giving up. A re-dispatch is exact: the sub-stream is a
// pure function of (seed, shard index), and when the failed attempt
// streamed a checkpoint the replacement runner adopts it, resuming via
// the replay path instead of re-running from ordinal zero (dispatch.go).
const shardAttempts = 3

// runSharded is Run's coordinator path (Config.Shards > 1). Execution
// goes through the shard-dispatch boundary: the dispatcher picks a runner
// (in-process, or a Config.ShardWorkers endpoint) per attempt and owns
// failover by checkpoint adoption; this function owns training, fan-out,
// and the merge.
func (f *FreePhish) runSharded() (*analysis.Study, error) {
	f.runStart = time.Now()
	if f.Model == nil || f.BaseModel == nil {
		sp := f.Metrics.Tracer.Start("train")
		err := f.Train()
		sp.EndErr(err)
		if err != nil {
			return nil, err
		}
	}
	n := f.Config.Shards
	d := f.newDispatcher()
	// Every runner closes its child and audits its world before it
	// snapshots, so a failed shard leaves nothing open here and Verify
	// needs only the merged records.
	snaps, err := par.MapOrdered(n, make([]struct{}, n),
		func(i int, _ struct{}) (*state.Snapshot, error) { return d.runShard(i) })
	if err != nil {
		return nil, err
	}
	merged := state.Merge(snaps...)
	f.State.Restore(merged)
	if f.Metrics.Journal != nil {
		f.Metrics.Journal = obs.RebuildJournal(
			f.Clock.Now, f.Config.JournalRing, merged.Events)
	}
	return f.State.Study(), nil
}

// observeShardRetry surfaces a failed shard attempt: a counter on the
// coordinator's registry and an ops-class journal event, so re-runs show
// up on /dash and in the ops stream instead of silently re-paying a
// shard's worth of work. Ops events never enter the canonical record
// (see obs.SortCanonical), so observing a retry cannot perturb the
// byte-identity contract.
func (f *FreePhish) observeShardRetry(shard, attempt int, err error) {
	f.Metrics.ShardRetries.With(itoa(shard)).Inc()
	if j := f.Metrics.Journal; j != nil {
		j.RecordOps("", obs.EvShardRetry,
			"shard", itoa(shard), "attempt", itoa(attempt), "err", err.Error())
	}
}
