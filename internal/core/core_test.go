package core

import (
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"freephish/internal/analysis"
	"freephish/internal/blocklist"
	fwbPkg "freephish/internal/fwb"
)

// smallConfig is a fast end-to-end configuration: ~630 FWB + 630
// self-hosted URLs over the six-month virtual window.
func smallConfig(seed int64) Config {
	cfg := DefaultConfig()
	cfg.Seed = seed
	cfg.Scale = 0.02
	cfg.TrainPerClass = 400
	return cfg
}

// runSmall runs one small study, cached per test binary invocation.
var cachedStudy *analysis.Study
var cachedFP *FreePhish

func runSmall(t *testing.T) (*FreePhish, *analysis.Study) {
	t.Helper()
	if cachedStudy != nil {
		return cachedFP, cachedStudy
	}
	f := newCached(smallConfig(5))
	study, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}
	cachedFP, cachedStudy = f, study
	return f, study
}

func TestEndToEndStudyProducesRecords(t *testing.T) {
	f, study := runSmall(t)
	nFWB := len(study.Select(analysis.FWBCohort))
	nSelf := len(study.Select(analysis.SelfHostedCohort))
	t.Logf("records: FWB=%d self=%d stats=%+v", nFWB, nSelf, f.Stats())
	if nFWB < 400 {
		t.Fatalf("FWB records = %d, want most of ~628 flagged", nFWB)
	}
	if nSelf < 400 {
		t.Fatalf("self-hosted records = %d, want most of ~628 flagged", nSelf)
	}
	if f.Stats().Polls < 1000 {
		t.Fatalf("polls = %d, want ~26k 10-minute cycles", f.Stats().Polls)
	}
	// Zero-day classifier quality (paper: 97% accuracy).
	tp, fp, fn := f.Stats().TruePositives, f.Stats().FalsePositives, f.Stats().FalseNegatives
	prec := float64(tp) / float64(tp+fp)
	rec := float64(tp) / float64(tp+fn)
	if prec < 0.9 || rec < 0.9 {
		t.Errorf("zero-day precision=%.3f recall=%.3f, want >= 0.9", prec, rec)
	}
}

func TestEndToEndCoverageGap(t *testing.T) {
	_, study := runSmall(t)
	week := 7 * 24 * time.Hour
	for _, entity := range []string{"PhishTank", "OpenPhish", "GSB", "eCrimeX", "platform", "host"} {
		fr := study.Coverage(entity, analysis.FWBCohort, week)
		sr := study.Coverage(entity, analysis.SelfHostedCohort, week)
		t.Logf("%-10s FWB %.3f (med %v) | self %.3f (med %v)", entity, fr.Coverage, fr.Median, sr.Coverage, sr.Median)
		if fr.Coverage >= sr.Coverage {
			t.Errorf("%s: FWB coverage %.3f >= self %.3f", entity, fr.Coverage, sr.Coverage)
		}
		// Median ordering holds for blocklists and platforms. For "host"
		// the paper's own tables disagree: Table 3 reports a 9:43 FWB
		// median, but Table 4's per-service medians (Weebly 1:39,
		// 000webhost 0:45 — the services with most removals) imply a fast
		// overall median. We reproduce Table 4, so the host median is not
		// asserted here; see EXPERIMENTS.md.
		if entity != "host" && fr.Covered > 0 && sr.Covered > 0 && fr.Median <= sr.Median {
			t.Errorf("%s: FWB median %v <= self %v", entity, fr.Median, sr.Median)
		}
	}
}

func TestEndToEndVTGap(t *testing.T) {
	_, study := runSmall(t)
	week := 7 * 24 * time.Hour
	fwbMed := analysis.MedianInt(study.DetectionCounts(analysis.FWBCohort, week))
	selfMed := analysis.MedianInt(study.DetectionCounts(analysis.SelfHostedCohort, week))
	t.Logf("VT medians after a week: FWB=%d self=%d (paper: 4 vs 9)", fwbMed, selfMed)
	if fwbMed >= selfMed {
		t.Fatalf("FWB median detections %d >= self-hosted %d", fwbMed, selfMed)
	}
}

func TestEndToEndSection3Stats(t *testing.T) {
	_, study := runSmall(t)
	fwbAge := study.MedianDomainAge(analysis.FWBCohort)
	selfAge := study.MedianDomainAge(analysis.SelfHostedCohort)
	if years := fwbAge.Hours() / 24 / 365; years < 8 || years > 25 {
		t.Errorf("FWB median age = %.1f years, want double digits", years)
	}
	if days := selfAge.Hours() / 24; days < 10 || days > 150 {
		t.Errorf("self-hosted median age = %.0f days, want ≈71", days)
	}
	ctVisible := study.Fraction(analysis.FWBCohort, func(r *analysis.Record) bool { return r.Target.InCTLog })
	if ctVisible != 0 {
		t.Errorf("FWB CT visibility = %.3f, want 0 (the §3 invisibility mechanism)", ctVisible)
	}
	noindex := study.Fraction(analysis.FWBCohort, func(r *analysis.Record) bool { return r.Target.Noindex })
	if noindex < 0.3 || noindex < 0.0 || noindex > 0.6 {
		t.Errorf("noindex fraction = %.3f, want ≈0.45", noindex)
	}
}

func TestEndToEndPostsRemovedOnPlatform(t *testing.T) {
	f, study := runSmall(t)
	removed := 0
	for _, r := range study.Records {
		if r.PlatformRemoved {
			removed++
			post := f.Sim.Networks[r.Target.Platform].Lookup(r.Target.PostID)
			if post == nil {
				t.Fatal("record references unknown post")
			}
			if rm, at := post.Removed(); !rm || !at.Equal(r.PlatformRemovedAt) {
				t.Fatal("platform removal not reflected on the network")
			}
		}
	}
	if removed == 0 {
		t.Fatal("no posts removed by platforms at all")
	}
}

func TestEndToEndTakedownsReflectedOnHost(t *testing.T) {
	_, study := runSmall(t)
	n := 0
	for _, r := range study.Records {
		if r.HostRemoved {
			n++
			down, at, _ := r.Target.Site.TakenDown()
			if !down || !at.Equal(r.HostRemovedAt) {
				t.Fatal("host takedown not reflected on the site")
			}
		}
	}
	if n == 0 {
		t.Fatal("no sites taken down at all")
	}
}

func TestRenderersProduceOutput(t *testing.T) {
	f, study := runSmall(t)
	for name, out := range map[string]string{
		"table3":    RenderTable3(study),
		"table4":    RenderTable4(study),
		"figure5":   RenderFigure5(study, 10),
		"figure6":   RenderFigure6(study),
		"figure7":   RenderFigure7(study),
		"figure8":   RenderFigure8(study),
		"figure9":   RenderFigure9(study),
		"section3":  RenderSection3(study),
		"section55": RenderSection55(study),
		"stats":     RenderStats(f.Stats()),
	} {
		if len(out) < 80 || !strings.Contains(out, "\n") {
			t.Errorf("%s renderer output too small:\n%s", name, out)
		}
	}
}

func TestHistoricalStudyShape(t *testing.T) {
	points := HistoricalStudy(7)
	if len(points) != 11 {
		t.Fatalf("quarters = %d, want 11 (2020-Q1 .. 2022-Q3)", len(points))
	}
	first, last := points[0], points[len(points)-1]
	if last.Total() < 3*first.Total() {
		t.Fatalf("no escalation: first=%d last=%d", first.Total(), last.Total())
	}
	total := 0
	for _, p := range points {
		total += p.Total()
		if p.Twitter < p.Facebook/3 {
			t.Errorf("%s: twitter=%d facebook=%d — platform mix off", p.Quarter, p.Twitter, p.Facebook)
		}
		if len(p.Top80) == 0 {
			t.Errorf("%s: empty top80 set", p.Quarter)
		}
	}
	if total < 23000 || total > 28000 {
		t.Fatalf("historical total = %d, want ≈25.2K (D1)", total)
	}
	// The strategic shift: later quarters use more distinct services.
	if len(last.Top80) <= len(first.Top80) {
		t.Errorf("no adoption shift: first top80=%v last top80=%v", first.Top80, last.Top80)
	}
	// Determinism.
	again := HistoricalStudy(7)
	for i := range again {
		if again[i].Total() != points[i].Total() {
			t.Fatal("historical study not deterministic")
		}
	}
}

func TestRenderFigure1(t *testing.T) {
	out := RenderFigure1(HistoricalStudy(7))
	if !strings.Contains(out, "2020-Q1") || !strings.Contains(out, "2022-Q3") {
		t.Fatalf("figure 1 output missing quarters:\n%s", out)
	}
}

func TestRenderTable1(t *testing.T) {
	out := RenderTable1(42, 6)
	if !strings.Contains(out, "Weebly") || !strings.Contains(out, "github.io") {
		t.Fatalf("table 1 missing rows:\n%s", out)
	}
}

func TestBlocklistFeedsQueryableOverHTTP(t *testing.T) {
	f, study := runSmall(t)
	// Find a GSB-detected URL and verify the lookup API agrees.
	var url string
	var at time.Time
	for _, r := range study.Records {
		if v := r.Blocklist["GSB"]; v.Detected {
			url, at = r.Target.URL, v.At
			break
		}
	}
	if url == "" {
		t.Fatal("no GSB detection in the study")
	}
	srv := httptest.NewServer(f.Sim.Feeds["GSB"])
	defer srv.Close()
	c := blocklist.NewClient(srv.URL)
	listed, err := c.IsListed(url)
	if err != nil {
		t.Fatal(err)
	}
	// The study clock has advanced past every listing time.
	if f.Clock.Now().Before(at) {
		t.Fatalf("clock %v before listing %v", f.Clock.Now(), at)
	}
	if !listed {
		t.Fatalf("detected URL %q not in the GSB feed", url)
	}
	if listed, _ := c.IsListed("https://never-seen.weebly.com/"); listed {
		t.Fatal("unknown URL listed")
	}
}

func TestActiveMonitorObservationsMatchSchedule(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 21
	cfg.Scale = 0.004
	cfg.TrainPerClass = 120
	cfg.MonitorInterval = 4 * time.Hour
	f := newCached(cfg)
	study, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Observations()) != len(study.Records) {
		t.Fatalf("observations = %d, records = %d", len(f.Observations()), len(study.Records))
	}
	var checkedDown, checkedListed int
	for _, r := range study.Records {
		obs := f.Observations()[r.Target.URL]
		if obs == nil || obs.Probes == 0 {
			t.Fatal("record without monitor probes")
		}
		// Host takedowns within the horizon must be observed within one
		// monitor interval of the scheduled time.
		if r.HostRemoved && r.HostRemovedAt.Sub(r.Target.SharedAt) < MonitorHorizon-cfg.MonitorInterval {
			if obs.HostDownAt.IsZero() {
				t.Errorf("takedown of %s at %v never observed", r.Target.URL, r.HostRemovedAt)
				continue
			}
			lag := obs.HostDownAt.Sub(r.HostRemovedAt)
			if lag < 0 || lag > cfg.MonitorInterval+time.Minute {
				t.Errorf("observed takedown lag = %v, want within one interval", lag)
			}
			checkedDown++
		}
		// Same for blocklist listings.
		for name, v := range r.Blocklist {
			if !v.Detected || v.At.Sub(r.Target.SharedAt) >= MonitorHorizon-cfg.MonitorInterval {
				continue
			}
			at, ok := obs.Listings[name]
			if !ok {
				t.Errorf("%s listing of %s never observed", name, r.Target.URL)
				continue
			}
			lag := at.Sub(v.At)
			if lag < 0 || lag > cfg.MonitorInterval+time.Minute {
				t.Errorf("%s observed listing lag = %v", name, lag)
			}
			checkedListed++
		}
	}
	if checkedDown == 0 || checkedListed == 0 {
		t.Fatalf("monitor verified nothing: down=%d listed=%d", checkedDown, checkedListed)
	}
	t.Logf("monitor verified %d takedowns and %d listings over HTTP", checkedDown, checkedListed)
}

func TestResharesDoNotDuplicateRecords(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 31
	cfg.Scale = 0.004
	cfg.TrainPerClass = 120
	cfg.ReshareRate = 2.0 // heavy amplification
	f := newCached(cfg)
	study, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}
	if f.Stats().PostsSeen <= f.Stats().URLsScanned {
		t.Fatalf("posts=%d scanned=%d: reshares should outnumber unique scans",
			f.Stats().PostsSeen, f.Stats().URLsScanned)
	}
	seen := map[string]bool{}
	for _, r := range study.Records {
		if seen[r.Target.URL] {
			t.Fatalf("URL %q recorded twice", r.Target.URL)
		}
		seen[r.Target.URL] = true
	}
}

func TestKitFamiliesInStudy(t *testing.T) {
	_, study := runSmall(t)
	families := study.KitFamilies(0.5, 4)
	if len(families) < 3 {
		t.Fatalf("recovered %d kit families, want the kit market's majors", len(families))
	}
	// ~60% of self-hosted attacks come from 5 kits; the families must
	// cover a substantial share of the cohort.
	nSelf := len(study.Select(analysis.SelfHostedCohort))
	covered := 0
	for _, f := range families {
		covered += f.Size
	}
	if frac := float64(covered) / float64(nSelf); frac < 0.4 || frac > 0.8 {
		t.Fatalf("kit families cover %.2f of self-hosted cohort, want ≈0.6", frac)
	}
	out := RenderKitFamilies(study)
	if !strings.Contains(out, "pages") {
		t.Fatalf("renderer output:\n%s", out)
	}
}

func TestUptimeGapInStudy(t *testing.T) {
	_, study := runSmall(t)
	horizon := 14 * 24 * time.Hour
	fu := study.Uptime(analysis.FWBCohort, horizon)
	su := study.Uptime(analysis.SelfHostedCohort, horizon)
	t.Logf("uptime: FWB survive=%.2f median=%v | self survive=%.2f median=%v",
		fu.SurvivalFraction(), fu.Median, su.SurvivalFraction(), su.Median)
	// The takedown-resistance claim: most FWB attacks outlive the horizon,
	// most self-hosted attacks do not.
	if fu.SurvivalFraction() <= su.SurvivalFraction() {
		t.Fatalf("FWB survival %.2f <= self-hosted %.2f", fu.SurvivalFraction(), su.SurvivalFraction())
	}
	if fu.Median <= su.Median {
		t.Fatalf("FWB median lifetime %v <= self-hosted %v", fu.Median, su.Median)
	}
	out := RenderUptime(study)
	if !strings.Contains(out, "survival") && !strings.Contains(out, "survive") {
		t.Fatalf("uptime renderer:\n%s", out)
	}
}

func TestStudyDeterministicPerSeed(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 41
	cfg.Scale = 0.003
	cfg.TrainPerClass = 80
	run := func() (string, int) {
		f := newCached(cfg)
		study, err := f.Run()
		if err != nil {
			t.Fatal(err)
		}
		return RenderTable3(study) + RenderFigure5(study, 10), len(study.Records)
	}
	out1, n1 := run()
	out2, n2 := run()
	if n1 != n2 || out1 != out2 {
		t.Fatalf("same-seed studies diverged: %d vs %d records", n1, n2)
	}
	// A different seed must actually change the draw.
	cfg.Seed = 42
	f := newCached(cfg)
	study, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}
	if out3 := RenderTable3(study) + RenderFigure5(study, 10); out3 == out1 {
		t.Fatal("different seeds produced identical studies")
	}
}

func TestCrossSeedStability(t *testing.T) {
	// The headline findings must hold for any seed, not just the default.
	week := 7 * 24 * time.Hour
	for _, seed := range []int64{101, 202} {
		cfg := DefaultConfig()
		cfg.Seed = seed
		cfg.Scale = 0.004
		cfg.TrainPerClass = 100
		f := New(cfg)
		study, err := f.Run()
		if err != nil {
			t.Fatal(err)
		}
		for _, entity := range []string{"GSB", "eCrimeX", "platform"} {
			fr := study.Coverage(entity, analysis.FWBCohort, week)
			sr := study.Coverage(entity, analysis.SelfHostedCohort, week)
			if fr.Coverage >= sr.Coverage {
				t.Errorf("seed %d: %s FWB %.3f >= self %.3f", seed, entity, fr.Coverage, sr.Coverage)
			}
		}
	}
}

func TestCategoriesRenderer(t *testing.T) {
	_, study := runSmall(t)
	out := RenderCategories(study)
	if !strings.Contains(out, "social") || !strings.Contains(out, "banking") {
		t.Fatalf("sector breakdown incomplete:\n%s", out)
	}
}

func TestTable3CIRenderer(t *testing.T) {
	_, study := runSmall(t)
	out := RenderTable3CI(study, 5)
	if !strings.Contains(out, "95% CI") || !strings.Contains(out, "GSB") {
		t.Fatalf("CI table incomplete:\n%s", out)
	}
	// Each row must show bracketed intervals.
	if strings.Count(out, "[") < 12 {
		t.Fatalf("expected 12 intervals:\n%s", out)
	}
}

func TestSummaryRenderer(t *testing.T) {
	_, study := runSmall(t)
	out := RenderSummary(study)
	for _, want := range []string{"GSB covered", "Hosting providers removed", "Median browser-protection"} {
		if !strings.Contains(out, want) {
			t.Fatalf("summary missing %q:\n%s", want, out)
		}
	}
	// The never-reached-half claim should hold for the FWB cohort.
	if !strings.Contains(out, "never reached half of the FWB cohort") {
		t.Fatalf("summary lost the headline gap:\n%s", out)
	}
}

func TestAbuseVolumeCoverageCorrelation(t *testing.T) {
	// Table 4's discussion: heavily-abused FWBs get more blocklist
	// scrutiny. Rank-correlate per-service URL volume with GSB coverage
	// over services with enough mass to measure.
	_, study := runSmall(t)
	week := 7 * 24 * time.Hour
	var volumes, coverages []float64
	for _, svc := range fwbPkg.All() {
		cohort := analysis.OnService(svc.Key)
		n := len(study.Select(cohort))
		if n < 15 {
			continue
		}
		volumes = append(volumes, float64(n))
		coverages = append(coverages, study.Coverage("GSB", cohort, week).Coverage)
	}
	if len(volumes) < 6 {
		t.Skip("not enough populated services at this scale")
	}
	rho := analysis.SpearmanRho(volumes, coverages)
	t.Logf("abuse-volume vs GSB coverage: Spearman rho = %.3f over %d services", rho, len(volumes))
	if rho < 0.3 {
		t.Fatalf("rho = %.3f — the volume-scrutiny relationship is missing", rho)
	}
}

func TestStudyVerifyInvariants(t *testing.T) {
	f, _ := runSmall(t)
	if err := f.Verify(); err != nil {
		t.Fatalf("study violates invariants: %v", err)
	}
	// Corrupt a record and confirm Verify catches it.
	r := f.Study().Records[0]
	saved := r.Target.SharedAt
	r.Target.SharedAt = f.Config.Epoch.Add(-time.Hour)
	if err := f.Verify(); err == nil {
		t.Fatal("Verify missed an out-of-window share time")
	}
	r.Target.SharedAt = saved
	if err := f.Verify(); err != nil {
		t.Fatalf("restore failed: %v", err)
	}
}
