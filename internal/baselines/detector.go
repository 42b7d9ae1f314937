// Package baselines implements the five phishing-detection models the
// paper compares in Table 2: URLNet (URL-string only), VisualPhishNet
// (visual similarity), PhishIntention (visual + dynamic analysis), the base
// StackModel of Li et al., and the augmented FreePhish model. The paper's
// originals are deep networks running on GPUs; these reimplementations
// preserve each model's information diet (what it is allowed to look at)
// and its relative cost profile, which is what Table 2's
// accuracy/recall/runtime comparison exercises.
package baselines

import (
	"context"
	"sort"
	"time"

	"freephish/internal/features"
	"freephish/internal/ml"
	"freephish/internal/pipe"
	"freephish/internal/webgen"
)

// LabeledPage is one ground-truth sample.
type LabeledPage struct {
	Page  features.Page
	Label int // 1 = phishing
}

// SyntheticPairs generates a ground-truth corpus of pairs FWB phishing
// sites, each followed by a benign one, from a fresh generator seeded with
// seed, every site created at at. The generator call order is fixed: it
// defines the corpus a seed's models are trained on.
func SyntheticPairs(seed int64, pairs int, at time.Time) []LabeledPage {
	g := webgen.NewGenerator(seed, nil, nil)
	var out []LabeledPage
	for i := 0; i < pairs; i++ {
		p := g.PhishingFWBSite(g.PickService(), at)
		b := g.BenignFWBSite(g.PickServiceUniform(), at)
		out = append(out,
			LabeledPage{Page: features.Page{URL: p.URL, HTML: p.HTML}, Label: 1},
			LabeledPage{Page: features.Page{URL: b.URL, HTML: b.HTML}})
	}
	return out
}

// Detector is a trainable phishing detector.
type Detector interface {
	// Name is the Table 2 row label.
	Name() string
	// Train fits the detector on labeled pages.
	Train(samples []LabeledPage) error
	// Score returns P(phishing) for a page.
	Score(p features.Page) (float64, error)
}

// Result is one Table 2 row: quality metrics plus runtime profile.
type Result struct {
	Model       string
	Metrics     ml.Metrics
	AUC         float64
	TotalTime   time.Duration
	MedianTime  time.Duration
	SampleCount int
}

// Evaluate scores a trained detector over a test set, timing every sample
// the way the paper times per-URL classification. Besides the threshold
// metrics it reports AUC, which separates models the 0.5 threshold ties.
//
// Scoring streams through a single-stage pipe — every detector's Score is
// read-only on a trained model — whose reorder buffer hands results to the
// metric accumulator in input order the moment each head-of-line sample
// completes, so the quality metrics are identical to a sequential
// evaluation while memory stays bounded by the worker pool, not the test
// set. MedianTime remains each sample's own compute time; TotalTime is the
// pool's wall-clock, i.e. throughput as deployed.
func Evaluate(d Detector, test []LabeledPage) (Result, error) {
	type scored struct {
		score float64
		dur   time.Duration
	}
	var conf ml.Confusion
	times := make([]time.Duration, 0, len(test))
	scores := make([]float64, 0, len(test))
	labels := make([]int, 0, len(test))
	start := time.Now()
	p := pipe.New(context.Background(), pipe.Options{Name: "evaluate"})
	st := pipe.Stage(pipe.Source(p, 0, test), "score", 0, 0,
		func(i int, s LabeledPage) (scored, error) {
			t0 := time.Now()
			score, err := d.Score(s.Page)
			return scored{score: score, dur: time.Since(t0)}, err
		})
	err := pipe.Drain(st, func(i int, r scored) error {
		s := test[i]
		times = append(times, r.dur)
		scores = append(scores, r.score)
		labels = append(labels, s.Label)
		pred := 0
		if r.score >= 0.5 {
			pred = 1
		}
		conf.Add(pred, s.Label)
		return nil
	})
	if err != nil {
		return Result{}, err
	}
	total := time.Since(start)
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	var median time.Duration
	if len(times) > 0 {
		median = times[len(times)/2]
	}
	return Result{
		Model:       d.Name(),
		Metrics:     conf.Metrics(),
		AUC:         ml.AUC(scores, labels),
		TotalTime:   total,
		MedianTime:  median,
		SampleCount: len(test),
	}, nil
}
