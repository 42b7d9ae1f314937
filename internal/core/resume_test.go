package core

import (
	"bytes"
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

// donateModels lets a resumed run skip training by borrowing the donor's
// trained models (read-only, like shard children do) — training is
// deterministic per seed, so the borrowed models are the ones the run
// would have trained.
func donateModels(f, donor *FreePhish) {
	f.Model = donor.Model
	f.BaseModel = donor.BaseModel
	f.Lexical = donor.Lexical
	f.cascade = donor.cascade
	f.sharedModels = true
}

// runResumeStudy executes one study and returns its records JSONL,
// canonical journal JSONL, stats, and the framework.
func runResumeStudy(t *testing.T, label string, cfg Config, donor *FreePhish, sink func([]byte) error) (rec, journal []byte, stats Stats, f *FreePhish) {
	t.Helper()
	f = New(cfg)
	if donor != nil {
		donateModels(f, donor)
	}
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
	baseRec, baseJournal, baseStats, donor := runResumeStudy(t,
		"baseline", resumeSweepConfig(1, BackendInproc), nil, nil)
	if len(donor.State.Records()) == 0 {
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
		rec, journal, stats, _ := runResumeStudy(t, label+" checkpointed", cfg, donor,
			func(data []byte) error {
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
			rrec, rjournal, rstats, _ := runResumeStudy(t, rlabel, rcfg, donor, nil)
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
	rrec, rjournal, rstats, _ := runResumeStudy(t, "cross-backend resume", rcfg, donor, nil)
	diffCascadeRun(t, "inproc/1 cut resumed on http/8", baseRec, rrec, baseJournal, rjournal, baseStats, rstats)
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
	baseRec, baseJournal, baseStats, donor := runResumeStudy(t, "baseline", short(1), nil, nil)

	path := filepath.Join(t.TempDir(), "study.ckpt")
	cfg := short(1)
	cfg.CheckpointPath = path
	cfg.CheckpointEvery = 2
	rec, journal, stats, _ := runResumeStudy(t, "checkpointed-to-file", cfg, donor, nil)
	diffCascadeRun(t, "checkpointed-to-file", baseRec, rec, baseJournal, journal, baseStats, stats)

	chk, err := state.ReadCheckpoint(path)
	if err != nil {
		t.Fatalf("reading the run's checkpoint file: %v", err)
	}
	rcfg := short(1)
	rcfg.Resume = chk
	rrec, rjournal, rstats, rf := runResumeStudy(t, "resume-from-file", rcfg, donor, nil)
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
	_, _, _, donor := runResumeStudy(t, "donor", cfg, nil, func(data []byte) error {
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
	donateModels(f, donor)
	_, err = f.Run()
	if err == nil || !strings.Contains(err.Error(), "different study configuration") {
		t.Fatalf("mismatched resume = %v, want a fingerprint error", err)
	}

	// A checkpoint cut before fingerprints came from the spec (v1) is
	// refused by version, even into the configuration it was cut from.
	v1 := *chk
	v1.Fingerprint = "v1 seed=1 epoch=2022-11-01T00:00:00Z dur=96h0m0s"
	old := cfg
	old.CheckpointEvery = 0
	old.Resume = &v1
	f = New(old)
	donateModels(f, donor)
	_, err = f.Run()
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
