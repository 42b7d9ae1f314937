package core

import (
	"fmt"
	"time"

	"freephish/internal/baselines"
	"freephish/internal/features"
	"freephish/internal/pipe"
	"freephish/internal/simclock"
	"freephish/internal/world"
)

// Training is a pure function of its input. The ground-truth corpus comes
// from a world of its own, built from the seed and epoch alone, so the
// models depend on nothing but a trainKey: never on the run's window,
// chaos, journal, cascade thresholds or shard position. Trained models are
// read-only values; any number of runs and shards may share them.

// trainKey is everything training reads. It is complete by construction:
// trainModels sees only the key (and a parallelism, which changes no
// byte of the fitted models).
type trainKey struct {
	Seed  int64
	Epoch time.Time
	// PerClass is the ground-truth corpus size per class.
	PerClass int
	// Lexical also trains the cascade's URL-only triage scorer.
	Lexical bool
}

// trainKey returns the training input of this framework's (normalized)
// configuration.
func (f *FreePhish) trainKey() trainKey {
	return trainKey{
		Seed:     f.Config.Seed,
		Epoch:    f.Config.Epoch,
		PerClass: max(40, f.Config.scaled(f.Config.TrainPerClass)),
		Lexical:  f.Config.CascadeOn,
	}
}

// trainedModels is one training result: the augmented FreePhish model,
// the base StackModel, and the lexical scorer when the key asks for it.
type trainedModels struct {
	model   *baselines.StackDetector
	base    *baselines.StackDetector
	lexical *baselines.LexicalScorer
}

// trainModels builds the ground-truth corpus (§4.2) of key and fits the
// models on it, using up to workers goroutines (0 = one per CPU).
func trainModels(key trainKey, workers int) (*trainedModels, error) {
	sim := world.NewSim(key.Seed, key.Epoch, simclock.New(key.Epoch))
	fwbCorpus, selfCorpus := sim.GroundTruthCorpus(key.PerClass)
	m := &trainedModels{
		model: baselines.NewFreePhishModel(key.Seed),
		base:  baselines.NewBaseStackModel(key.Seed),
	}
	// The two stacks share nothing, so they fit concurrently when workers
	// allows: each one idles a core during its serial meta fit, which the
	// other fills. Errors report FreePhish first, as sequential fits did.
	type stackFit struct {
		model  *baselines.StackDetector
		corpus []world.Sample
		what   string
	}
	fits := []stackFit{{m.model, fwbCorpus, "FreePhish model"}, {m.base, selfCorpus, "base model"}}
	if _, err := pipe.MapOrdered(workers, fits, func(_ int, fit stackFit) (struct{}, error) {
		fit.model.SetParallelism(workers)
		if err := fit.model.Train(labeledPages(fit.corpus)); err != nil {
			return struct{}{}, fmt.Errorf("core: train %s: %w", fit.what, err)
		}
		return struct{}{}, nil
	}); err != nil {
		return nil, err
	}
	if key.Lexical {
		// The triage scorer sees both cohorts' URLs (it must rank FWB and
		// self-hosted traffic alike) and trains on its own keyed RNG
		// stream, so enabling the cascade perturbs no other draw — which
		// is what makes the degenerate (0, 1) cascade byte-identical to
		// running without one.
		m.lexical = baselines.NewLexicalScorer(key.Seed)
		corpus := append(labeledPages(fwbCorpus), labeledPages(selfCorpus)...)
		if err := m.lexical.Train(corpus); err != nil {
			return nil, fmt.Errorf("core: train lexical scorer: %w", err)
		}
	}
	return m, nil
}

// labeledPages converts the world's ground-truth samples for the trainers.
func labeledPages(samples []world.Sample) []baselines.LabeledPage {
	out := make([]baselines.LabeledPage, len(samples))
	for i, s := range samples {
		out[i] = baselines.LabeledPage{
			Page: features.Page{URL: s.URL, HTML: s.HTML}, Label: s.Label,
		}
	}
	return out
}
