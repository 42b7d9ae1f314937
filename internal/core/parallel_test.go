package core

import (
	"reflect"
	"testing"
)

// The pipeline's determinism contract: a study is bit-identical at every
// Config.Workers setting, because probes are side-effect-free and all
// stateful work (including every assessRNG draw) happens in the ordered
// apply phase. This runs the same seeded study at 1 and 8 workers and
// compares the rendered result tables and the raw counters.
func TestStudyDeterminismParallel(t *testing.T) {
	run := func(workers int) (*FreePhish, string) {
		cfg := DefaultConfig()
		cfg.Seed = 7
		cfg.Scale = 0.003
		cfg.TrainPerClass = 80
		cfg.Workers = workers
		f := newCached(cfg)
		study, err := f.Run()
		if err != nil {
			t.Fatal(err)
		}
		return f, RenderTable3(study) + "\n" + RenderFigure5(study, 10)
	}
	seqF, seqOut := run(1)
	parF, parOut := run(8)

	if len(seqF.Study().Records) == 0 {
		t.Fatal("sequential study produced no records; determinism check is vacuous")
	}
	if len(seqF.Study().Records) != len(parF.Study().Records) {
		t.Fatalf("record counts diverge: workers=1 → %d, workers=8 → %d",
			len(seqF.Study().Records), len(parF.Study().Records))
	}
	if !reflect.DeepEqual(seqF.Stats(), parF.Stats()) {
		t.Fatalf("stats diverge:\nworkers=1: %+v\nworkers=8: %+v", seqF.Stats(), parF.Stats())
	}
	if seqOut != parOut {
		t.Fatalf("rendered study diverges between worker counts:\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s",
			seqOut, parOut)
	}
	// Per-record spot check beyond the aggregate renders: URL order and
	// classifier scores must match exactly.
	for i := range seqF.Study().Records {
		a, b := seqF.Study().Records[i], parF.Study().Records[i]
		if a.Target.URL != b.Target.URL || a.ClassifierScore != b.ClassifierScore {
			t.Fatalf("record %d diverges: %q score=%v vs %q score=%v",
				i, a.Target.URL, a.ClassifierScore, b.Target.URL, b.ClassifierScore)
		}
	}
}
