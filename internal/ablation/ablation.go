// Package ablation quantifies the design choices and evasion mechanisms
// the paper argues for, by toggling one factor at a time:
//
//   - FeatureAblation: how much of the FreePhish model's accuracy comes
//     from the two FWB-specific features added in §4.2.
//   - StackingAblation: the two-layer stack vs its individual base models.
//   - CTCounterfactual: how much blocklist coverage FWB attacks would lose
//     if they DID appear in certificate-transparency logs (§3's
//     invisibility mechanism, inverted).
//   - NoindexCounterfactual: the same question for the noindex tag.
//   - ResponsivenessCounterfactual: how much faster FWB takedown would be
//     if every service behaved like the responsive ones (§5.3).
package ablation

import (
	"fmt"
	"time"

	"freephish/internal/baselines"
	"freephish/internal/blocklist"
	"freephish/internal/features"
	"freephish/internal/fwb"
	"freephish/internal/ml"
	"freephish/internal/report"
	"freephish/internal/simclock"
	"freephish/internal/threat"
	"freephish/internal/webgen"
)

var epoch = time.Date(2022, 11, 1, 0, 0, 0, 0, time.UTC)

// Variant is one ablation arm's outcome.
type Variant struct {
	Name    string
	Metrics ml.Metrics
}

// corpus builds a balanced labeled FWB corpus. evasiveFocus draws the
// phishing side from the §5.5-heavy services (Google Sites, Blogspot,
// Sharepoint, Google Forms), where credential-less variants dominate and
// the FWB-specific features earn their keep; otherwise the Table 4 mix is
// used.
func corpus(seed int64, n int, evasiveFocus bool) (train, test []baselines.LabeledPage) {
	g := webgen.NewGenerator(seed, nil, nil)
	evasiveKeys := []string{"googlesites", "blogspot", "sharepoint", "googleforms"}
	rng := simclock.NewRNG(seed, "ablation.split")
	var all []baselines.LabeledPage
	for i := 0; i < n/2; i++ {
		var p *fwb.Site
		if evasiveFocus {
			svc, _ := fwb.ByKey(evasiveKeys[rng.Intn(len(evasiveKeys))])
			p = g.PhishingFWBSite(svc, epoch)
		} else {
			p = g.PhishingFWBSite(g.PickService(), epoch)
		}
		all = append(all, baselines.LabeledPage{Page: features.Page{URL: p.URL, HTML: p.HTML}, Label: 1})
		b := g.BenignFWBSite(g.PickServiceUniform(), epoch)
		all = append(all, baselines.LabeledPage{Page: features.Page{URL: b.URL, HTML: b.HTML}})
	}
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	cut := int(float64(len(all)) * 0.7)
	return all[:cut], all[cut:]
}

// featureDataset extracts the named feature view for every sample.
func featureDataset(names []string, samples []baselines.LabeledPage) (*ml.Dataset, error) {
	d := &ml.Dataset{Names: names}
	cols := features.Columns(names)
	for _, s := range samples {
		v, err := features.ExtractValues(s.Page)
		if err != nil {
			return nil, err
		}
		d.X = append(d.X, v.Vector(cols))
		d.Y = append(d.Y, s.Label)
	}
	return d, nil
}

// withoutFWBFeatures is the FreePhish feature set minus the two §4.2
// additions — isolating their contribution.
func withoutFWBFeatures() []string {
	var out []string
	for _, n := range features.FreePhishNames {
		if n == features.FObfuscatedBanner || n == features.FNoindex {
			continue
		}
		out = append(out, n)
	}
	return out
}

// FeatureAblation trains the stacking model on three feature views over
// the same split and returns their test metrics.
func FeatureAblation(seed int64, n int) ([]Variant, error) {
	train, test := corpus(seed, n, true)
	views := []struct {
		name  string
		names []string
	}{
		{"FreePhish (22 features)", features.FreePhishNames},
		{"minus FWB features (20)", withoutFWBFeatures()},
		{"original StackModel (20)", features.BaseStackNames},
	}
	var out []Variant
	for _, v := range views {
		trainSet, err := featureDataset(v.names, train)
		if err != nil {
			return nil, err
		}
		testSet, err := featureDataset(v.names, test)
		if err != nil {
			return nil, err
		}
		m := ml.NewStackModel(seed)
		if err := m.Fit(trainSet); err != nil {
			return nil, err
		}
		out = append(out, Variant{Name: v.name, Metrics: ml.Evaluate(m, testSet)})
	}
	return out, nil
}

// StackingAblation compares the two-layer stack against its base learners
// and a random forest on the FreePhish feature view.
func StackingAblation(seed int64, n int) ([]Variant, error) {
	train, test := corpus(seed, n, false)
	trainSet, err := featureDataset(features.FreePhishNames, train)
	if err != nil {
		return nil, err
	}
	testSet, err := featureDataset(features.FreePhishNames, test)
	if err != nil {
		return nil, err
	}
	models := []struct {
		name string
		c    ml.Classifier
	}{
		{"GBDT", ml.NewGBDT()},
		{"XGBoost-style", ml.NewXGBoost()},
		{"LightGBM-style", ml.NewLightGBM()},
		{"RandomForest", ml.NewRandomForest(seed)},
		{"2-layer stack", ml.NewStackModel(seed)},
	}
	var out []Variant
	for _, m := range models {
		if err := m.c.Fit(trainSet); err != nil {
			return nil, err
		}
		out = append(out, Variant{Name: m.name, Metrics: ml.Evaluate(m.c, testSet)})
	}
	return out, nil
}

// CounterfactualResult is a coverage delta from toggling one mechanism.
type CounterfactualResult struct {
	Mechanism      string
	BaselineCov    float64 // actual FWB coverage
	Counterfactual float64 // coverage with the mechanism disabled
}

// fwbTargets builds n FWB phishing targets through the standard pipeline.
func fwbTargets(seed int64, n int) []*threat.Target {
	g := webgen.NewGenerator(seed, nil, nil)
	rng := simclock.NewRNG(seed, "ablation.targets")
	var out []*threat.Target
	for i := 0; i < n; i++ {
		site := g.PhishingFWBSite(g.PickService(), epoch)
		out = append(out, threat.Derive(site, epoch, threat.Twitter, fmt.Sprintf("a%d", i), nil, nil, rng))
	}
	return out
}

func gsbCoverage(targets []*threat.Target, rng *simclock.RNG) float64 {
	gsb := blocklist.Standard()[2]
	week := 7 * 24 * time.Hour
	hit := 0
	for _, t := range targets {
		if v := gsb.Assess(t, rng); v.Detected && v.At.Sub(t.SharedAt) <= week {
			hit++
		}
	}
	return float64(hit) / float64(len(targets))
}

// CTCounterfactual measures GSB's one-week FWB coverage as-is versus a
// world where every FWB site received its own logged certificate — the
// inverse of the §3 CT-invisibility mechanism.
func CTCounterfactual(seed int64, n int) CounterfactualResult {
	targets := fwbTargets(seed, n)
	rng := simclock.NewRNG(seed, "ablation.ct")
	baseline := gsbCoverage(targets, rng)

	visible := make([]*threat.Target, len(targets))
	for i, t := range targets {
		c := *t
		c.InCTLog = true
		visible[i] = &c
	}
	return CounterfactualResult{
		Mechanism:      "CT-log invisibility",
		BaselineCov:    baseline,
		Counterfactual: gsbCoverage(visible, rng),
	}
}

// NoindexCounterfactual measures coverage as-is versus a world where no
// FWB phishing page uses noindex and pages index at the self-hosted rate.
func NoindexCounterfactual(seed int64, n int) CounterfactualResult {
	targets := fwbTargets(seed, n)
	rng := simclock.NewRNG(seed, "ablation.noindex")
	baseline := gsbCoverage(targets, rng)

	indexed := make([]*threat.Target, len(targets))
	for i, t := range targets {
		c := *t
		c.Noindex = false
		c.SearchIndexed = rng.Bool(threat.SelfHostedIndexedRate)
		indexed[i] = &c
	}
	return CounterfactualResult{
		Mechanism:      "noindex + link-less subdomains",
		BaselineCov:    baseline,
		Counterfactual: gsbCoverage(indexed, rng),
	}
}

// ResponsivenessResult summarizes the takedown counterfactual.
type ResponsivenessResult struct {
	BaselineRemoval      float64
	AllResponsiveRemoval float64
	BaselineMedian       time.Duration
	AllResponsiveMedian  time.Duration
}

// ResponsivenessCounterfactual measures two-week FWB takedown as-is versus
// a world where every FWB handles reports like Weebly does (§5.3's gap
// between responsive and unresponsive services).
func ResponsivenessCounterfactual(seed int64, n int) ResponsivenessResult {
	targets := fwbTargets(seed, n)
	rep := report.NewReporter(seed)
	weebly, _ := fwb.ByKey("weebly")

	measure := func(override bool) (float64, time.Duration) {
		removed := 0
		var total time.Duration
		var delays []time.Duration
		for _, t := range targets {
			tt := t
			if override {
				c := *t
				svc := *t.Service
				svc.RemovalRate = weebly.RemovalRate
				svc.MedianResponse = weebly.MedianResponse
				svc.ResponseClass = fwb.Responsive
				c.Service = &svc
				tt = &c
			}
			o := rep.ReportToFWB(tt, tt.SharedAt.Add(10*time.Minute))
			if o.Removed && o.RemovedAt.Sub(tt.SharedAt) <= 14*24*time.Hour {
				removed++
				delays = append(delays, o.RemovedAt.Sub(tt.SharedAt))
			}
		}
		_ = total
		med := time.Duration(0)
		if len(delays) > 0 {
			// median
			for i := 1; i < len(delays); i++ {
				for j := i; j > 0 && delays[j] < delays[j-1]; j-- {
					delays[j], delays[j-1] = delays[j-1], delays[j]
				}
			}
			med = delays[len(delays)/2]
		}
		return float64(removed) / float64(len(targets)), med
	}
	bCov, bMed := measure(false)
	cCov, cMed := measure(true)
	return ResponsivenessResult{
		BaselineRemoval:      bCov,
		AllResponsiveRemoval: cCov,
		BaselineMedian:       bMed,
		AllResponsiveMedian:  cMed,
	}
}

// FamiliaritySweep measures the dose-response between blocklist attention
// to FWB-hosted URLs and achieved coverage: GSB's one-week FWB coverage as
// its FWBAttention multiplier scales by each factor. The curve shows how
// much of the Table 3 gap is triage policy rather than hard invisibility —
// coverage saturates well below self-hosted levels because the CT and
// search channels stay closed no matter how attentive triage gets.
func FamiliaritySweep(seed int64, n int, factors []float64) []float64 {
	targets := fwbTargets(seed, n)
	rng := simclock.NewRNG(seed, "ablation.famsweep")
	out := make([]float64, len(factors))
	base := blocklist.Standard()[2]
	for i, f := range factors {
		e := *base
		e.FWBAttention = base.FWBAttention * f
		week := 7 * 24 * time.Hour
		hit := 0
		for _, t := range targets {
			if v := e.Assess(t, rng); v.Detected && v.At.Sub(t.SharedAt) <= week {
				hit++
			}
		}
		out[i] = float64(hit) / float64(len(targets))
	}
	return out
}
