package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"freephish/internal/faults"
	"freephish/internal/state"
)

// Checkpoint/resume contract (the `make verify-resume` gate): a run killed
// at ANY cut point and resumed from its checkpoint must produce
// byte-identical study records, a byte-identical canonical journal, and
// identical stats to the uninterrupted run — at every worker count, on
// both backends, under the default fault profile. Checkpointing itself
// must also be invisible: a run that writes checkpoints produces the same
// bytes as one that doesn't.

// resumeSweepConfig stretches the poll interval so a 30-day window yields
// ~37 cut points (one per virtual day plus the observation tail) — enough
// to sweep every cut without thousands of resumed runs.
func resumeSweepConfig(workers int, backend string) Config {
	cfg := streamSweepConfig(workers, 0, backend)
	cfg.PollInterval = 24 * time.Hour
	cfg.Duration = 30 * 24 * time.Hour
	cfg.Journal = true
	prof := faults.DefaultProfile()
	cfg.Faults = &prof
	return cfg
}

// runResumeStudy executes one study and returns its records JSONL,
// canonical journal JSONL, stats, and the framework.
func runResumeStudy(t *testing.T, label string, cfg Config, sink func([]byte, time.Time) error) (rec, journal []byte, stats Stats, f *FreePhish) {
	t.Helper()
	f = newCached(cfg)
	f.checkpointSink = sink
	study, err := f.Run()
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	var rbuf, jbuf bytes.Buffer
	if err := study.WriteJSONL(&rbuf); err != nil {
		t.Fatal(err)
	}
	if err := f.Metrics.Journal.WriteJSONL(&jbuf); err != nil {
		t.Fatal(err)
	}
	return rbuf.Bytes(), jbuf.Bytes(), f.Stats(), f
}

func TestResumeByteIdentical(t *testing.T) {
	baseRec, baseJournal, baseStats, base := runResumeStudy(t,
		"baseline", resumeSweepConfig(1, BackendInproc), nil)
	if len(base.State.Records()) == 0 {
		t.Fatal("baseline produced no records; the sweep is vacuous")
	}

	corners := []struct {
		workers int
		backend string
		all     bool // resume from every cut, not just a spread
	}{
		{1, BackendInproc, true},
		{8, BackendInproc, false},
		{1, BackendHTTP, false},
		{8, BackendHTTP, false},
	}
	wantCuts := 0
	var crossCut []byte // an inproc-cut checkpoint, resumed on http below
	for _, c := range corners {
		label := fmt.Sprintf("workers=%d backend=%s", c.workers, c.backend)
		cfg := resumeSweepConfig(c.workers, c.backend)
		cfg.CheckpointEvery = 1
		var cuts [][]byte
		rec, journal, stats, _ := runResumeStudy(t, label+" checkpointed", cfg,
			func(data []byte, _ time.Time) error {
				cuts = append(cuts, append([]byte(nil), data...))
				return nil
			})
		// Checkpointing must not perturb the run that writes the checkpoints.
		diffCascadeRun(t, label+" checkpointed", baseRec, rec, baseJournal, journal, baseStats, stats)
		if len(cuts) < 10 {
			t.Fatalf("%s: only %d cut points; the sweep is vacuous", label, len(cuts))
		}
		// Cut instants are a function of the sim schedule alone, so every
		// corner must find the same number of them.
		if wantCuts == 0 {
			wantCuts = len(cuts)
		} else if len(cuts) != wantCuts {
			t.Fatalf("%s: %d cut points, want %d (cut schedule must not depend on workers or backend)", label, len(cuts), wantCuts)
		}
		last, err := state.DecodeCheckpoint(cuts[len(cuts)-1])
		if err != nil {
			t.Fatalf("%s: final checkpoint does not decode: %v", label, err)
		}
		// The observation tail after the poll window must checkpoint too —
		// that is where the long monitor horizons live.
		if !last.SimNow.After(cfg.Epoch.Add(cfg.Duration)) {
			t.Fatalf("%s: final cut at %v, want one inside the post-window tail", label, last.SimNow)
		}
		if c.workers == 1 && c.backend == BackendInproc {
			crossCut = cuts[len(cuts)/2]
		}

		idx := []int{0, len(cuts) / 2, len(cuts) - 1}
		if c.all {
			idx = idx[:0]
			for i := range cuts {
				idx = append(idx, i)
			}
		}
		for _, i := range idx {
			chk, err := state.DecodeCheckpoint(cuts[i])
			if err != nil {
				t.Fatalf("%s: checkpoint %d does not decode: %v", label, i, err)
			}
			rcfg := resumeSweepConfig(c.workers, c.backend)
			rcfg.Resume = chk
			rlabel := fmt.Sprintf("%s resume@%d (%s)", label, i, chk.SimNow.Format("2006-01-02T15:04"))
			rrec, rjournal, rstats, _ := runResumeStudy(t, rlabel, rcfg, nil)
			diffCascadeRun(t, rlabel, baseRec, rrec, baseJournal, rjournal, baseStats, rstats)
		}
	}

	// The fingerprint deliberately excludes Backend and Workers: a
	// checkpoint cut on inproc/1 must resume on http/8 and still land on
	// the same bytes.
	chk, err := state.DecodeCheckpoint(crossCut)
	if err != nil {
		t.Fatal(err)
	}
	rcfg := resumeSweepConfig(8, BackendHTTP)
	rcfg.Resume = chk
	rrec, rjournal, rstats, _ := runResumeStudy(t, "cross-backend resume", rcfg, nil)
	diffCascadeRun(t, "inproc/1 cut resumed on http/8", baseRec, rrec, baseJournal, rjournal, baseStats, rstats)
}

// referenceCheckpoint is the checkpoint envelope as encoding/json writes
// it: the payload marshalled, then the envelope marshalled around it.
func referenceCheckpoint(t *testing.T, chk *state.Checkpoint) []byte {
	t.Helper()
	payload, err := json.Marshal(chk)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(payload)
	env, err := json.Marshal(struct {
		Version int             `json:"version"`
		Kind    string          `json:"kind,omitempty"`
		SHA256  string          `json:"sha256"`
		Payload json.RawMessage `json:"payload"`
	}{1, "checkpoint", hex.EncodeToString(sum[:]), payload})
	if err != nil {
		t.Fatal(err)
	}
	return env
}

// TestCheckpointCutsMatchReference is the gate on the run's checkpoint
// encoder, which re-encodes only what changed since the previous cut:
// every cut of a fresh and of a resumed run (whose encoder starts from
// restored, canonically sorted records) must be byte-identical to the
// reference encoding of the same checkpoint — with the journal, the
// default fault profile and the monitor on, on both backends. The cut
// bytes are kept as handed over, uncopied, and re-checked at the end of
// the run: a later cut must never write into an earlier one.
func TestCheckpointCutsMatchReference(t *testing.T) {
	for _, backend := range []string{BackendInproc, BackendHTTP} {
		run := func(label string, resume *state.Checkpoint) (cuts [][]byte) {
			cfg := resumeSweepConfig(1, backend)
			cfg.CheckpointEvery = 1
			cfg.Resume = resume
			f := newCached(cfg)
			var want [][]byte
			f.checkpointSink = func(data []byte, _ time.Time) error {
				ref := referenceCheckpoint(t, f.buildCheckpoint())
				if !bytes.Equal(data, ref) {
					t.Fatalf("%s %s: cut %d differs from the reference encoding (%d vs %d bytes)",
						backend, label, len(cuts), len(data), len(ref))
				}
				cuts, want = append(cuts, data), append(want, ref)
				return nil
			}
			if _, err := f.Run(); err != nil {
				t.Fatalf("%s %s: %v", backend, label, err)
			}
			for i := range cuts {
				if !bytes.Equal(cuts[i], want[i]) {
					t.Fatalf("%s %s: cut %d changed after it was handed over", backend, label, i)
				}
			}
			return cuts
		}
		cuts := run("fresh", nil)
		if len(cuts) < 10 {
			t.Fatalf("%s: only %d cuts; the gate is vacuous", backend, len(cuts))
		}
		chk, err := state.DecodeCheckpoint(cuts[len(cuts)/2])
		if err != nil {
			t.Fatal(err)
		}
		if len(chk.Snapshot.Records) == 0 || len(chk.Snapshot.Events) == 0 {
			t.Fatalf("%s: the resume point holds %d records and %d events; the gate is vacuous",
				backend, len(chk.Snapshot.Records), len(chk.Snapshot.Events))
		}
		if resumed := run("resumed", chk); len(resumed) < 5 {
			t.Fatalf("%s: only %d cuts after the resume", backend, len(resumed))
		}
	}
}

// TestResumeFromCheckpointFile drives the operator path end to end: a run
// that checkpoints to -checkpoint <path> leaves a file whose last
// checkpoint resumes (via ReadCheckpoint, hash verified) into the same
// bytes as the uninterrupted run.
func TestResumeFromCheckpointFile(t *testing.T) {
	short := func(workers int) Config {
		cfg := resumeSweepConfig(workers, BackendInproc)
		cfg.Duration = 8 * 24 * time.Hour
		return cfg
	}
	baseRec, baseJournal, baseStats, _ := runResumeStudy(t, "baseline", short(1), nil)

	path := filepath.Join(t.TempDir(), "study.ckpt")
	cfg := short(1)
	cfg.CheckpointPath = path
	cfg.CheckpointEvery = 2
	rec, journal, stats, _ := runResumeStudy(t, "checkpointed-to-file", cfg, nil)
	diffCascadeRun(t, "checkpointed-to-file", baseRec, rec, baseJournal, journal, baseStats, stats)

	chk, err := state.ReadCheckpoint(path)
	if err != nil {
		t.Fatalf("reading the run's checkpoint file: %v", err)
	}
	rcfg := short(1)
	rcfg.Resume = chk
	rrec, rjournal, rstats, rf := runResumeStudy(t, "resume-from-file", rcfg, nil)
	diffCascadeRun(t, "resume-from-file", baseRec, rrec, baseJournal, rjournal, baseStats, rstats)
	if err := rf.Verify(); err != nil {
		t.Fatalf("resumed run failed world verification: %v", err)
	}
}

// TestResumeRejectsFingerprintMismatch pins the guard against resuming a
// checkpoint into a different study: the error must name both
// configurations instead of silently producing a franken-study.
func TestResumeRejectsFingerprintMismatch(t *testing.T) {
	cfg := resumeSweepConfig(1, BackendInproc)
	cfg.Duration = 4 * 24 * time.Hour
	cfg.CheckpointEvery = 1
	var cuts [][]byte
	runResumeStudy(t, "source", cfg, func(data []byte, _ time.Time) error {
		cuts = append(cuts, append([]byte(nil), data...))
		return nil
	})
	if len(cuts) == 0 {
		t.Fatal("no checkpoints captured")
	}
	chk, err := state.DecodeCheckpoint(cuts[0])
	if err != nil {
		t.Fatal(err)
	}
	bad := cfg
	bad.Seed++
	bad.CheckpointEvery = 0
	bad.Resume = chk
	f := New(bad)
	_, err = f.Run()
	if err == nil || !strings.Contains(err.Error(), "different study configuration") {
		t.Fatalf("mismatched resume = %v, want a fingerprint error", err)
	}
	if f.Model != nil {
		t.Fatal("the mismatched resume trained models before refusing the checkpoint")
	}

	// A checkpoint cut before fingerprints came from the spec (v1) is
	// refused by version, even into the configuration it was cut from.
	v1 := *chk
	v1.Fingerprint = "v1 seed=1 epoch=2022-11-01T00:00:00Z dur=96h0m0s"
	old := cfg
	old.CheckpointEvery = 0
	old.Resume = &v1
	_, err = New(old).Run()
	if err == nil || !strings.Contains(err.Error(), `version "v1"`) {
		t.Fatalf("v1 resume = %v, want an error naming the fingerprint version", err)
	}
}

// TestCheckpointRejectedWithShards pins the coordinator-level guard: the
// checkpoint flags compose with everything except sharding, which gets a
// clear refusal (shard failover-by-adoption is future work).
func TestCheckpointRejectedWithShards(t *testing.T) {
	cfg := streamSweepConfig(1, 0, BackendInproc)
	cfg.Shards = 2
	cfg.CheckpointPath = filepath.Join(t.TempDir(), "x.ckpt")
	_, err := New(cfg).Run()
	if err == nil || !strings.Contains(err.Error(), "not supported with Shards") {
		t.Fatalf("sharded checkpoint run = %v, want a clear rejection", err)
	}
	cfg.CheckpointPath = ""
	cfg.Resume = &state.Checkpoint{Fingerprint: "x", Snapshot: &state.Snapshot{}}
	_, err = New(cfg).Run()
	if err == nil || !strings.Contains(err.Error(), "not supported with Shards") {
		t.Fatalf("sharded resume run = %v, want a clear rejection", err)
	}
}
