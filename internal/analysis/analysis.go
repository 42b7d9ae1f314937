// Package analysis implements the FreePhish analysis module (§4.4): it
// aggregates per-URL longitudinal observations into the paper's evaluation
// artifacts — blocklist coverage and response times (Table 3, Figure 6),
// browser-tool detection distributions (Figures 7–8), per-FWB
// countermeasure performance (Table 4), platform effectiveness (Figure 9),
// targeted-brand histograms (Figure 5), and the §5.5 evasive-attack census.
package analysis

import (
	"sort"
	"time"

	"freephish/internal/blocklist"
	"freephish/internal/report"
	"freephish/internal/threat"
)

// Record is the full longitudinal observation of one URL.
type Record struct {
	Target *threat.Target
	// ClassifierScore is the FreePhish model's P(phishing).
	ClassifierScore float64
	// Classified reports whether FreePhish flagged the URL.
	Classified   bool
	ClassifiedAt time.Time
	// Blocklist verdicts by entity name.
	Blocklist map[string]blocklist.Verdict
	// VTDetections are sorted engine detection times.
	VTDetections []time.Time
	// Platform post removal.
	PlatformRemoved   bool
	PlatformRemovedAt time.Time
	// Hosting takedown (FWB service or hosting provider).
	HostRemoved   bool
	HostRemovedAt time.Time
	// FWB report response (§5.3).
	Report report.Outcome
	// Tier names the cascade tier that admitted the record: "" for the
	// full fetch+classify path, "lexical" for a URL-only short-circuit
	// (such records were never fetched, so their Signature is empty).
	Tier string
	// Signature is the page's markup fingerprint (classes + resource
	// includes), captured at crawl time for kit-family clustering.
	Signature Signature
}

// Delay returns the share→event delay.
func (r *Record) Delay(at time.Time) time.Duration { return at.Sub(r.Target.SharedAt) }

// Cohort selects records.
type Cohort func(*Record) bool

// Cohort selectors for the paper's comparisons.
var (
	FWBCohort        Cohort = func(r *Record) bool { return r.Target.IsFWB() }
	SelfHostedCohort Cohort = func(r *Record) bool { return !r.Target.IsFWB() }
)

// OnPlatform restricts a cohort to one platform.
func OnPlatform(c Cohort, p threat.Platform) Cohort {
	return func(r *Record) bool { return c(r) && r.Target.Platform == p }
}

// OnService restricts to one FWB service key.
func OnService(key string) Cohort {
	return func(r *Record) bool { return r.Target.IsFWB() && r.Target.Service.Key == key }
}

// Study accumulates records.
type Study struct {
	Records []*Record
}

// Add appends a record.
func (s *Study) Add(r *Record) { s.Records = append(s.Records, r) }

// Select returns the records matching the cohort.
func (s *Study) Select(c Cohort) []*Record {
	var out []*Record
	for _, r := range s.Records {
		if c(r) {
			out = append(out, r)
		}
	}
	return out
}

// CoverageRow is one cell group of Table 3/4: coverage within the horizon
// plus min/max/median response times over covered URLs.
type CoverageRow struct {
	Covered  int
	Total    int
	Coverage float64
	Min      time.Duration
	Max      time.Duration
	Median   time.Duration
}

// eventTime extracts the observation instant for an entity from a record:
// a blocklist name, "platform", or "host".
func eventTime(r *Record, entity string) (time.Time, bool) {
	switch entity {
	case "platform":
		return r.PlatformRemovedAt, r.PlatformRemoved
	case "host":
		return r.HostRemovedAt, r.HostRemoved
	default:
		v, ok := r.Blocklist[entity]
		if !ok {
			return time.Time{}, false
		}
		return v.At, v.Detected
	}
}

// Coverage computes a CoverageRow for the entity over the cohort within
// the horizon.
func (s *Study) Coverage(entity string, c Cohort, horizon time.Duration) CoverageRow {
	var row CoverageRow
	var delays []time.Duration
	for _, r := range s.Select(c) {
		row.Total++
		at, ok := eventTime(r, entity)
		if !ok {
			continue
		}
		d := r.Delay(at)
		if d < 0 || d > horizon {
			continue
		}
		delays = append(delays, d)
	}
	row.Covered = len(delays)
	if row.Total > 0 {
		row.Coverage = float64(row.Covered) / float64(row.Total)
	}
	if len(delays) > 0 {
		sort.Slice(delays, func(i, j int) bool { return delays[i] < delays[j] })
		row.Min = delays[0]
		row.Max = delays[len(delays)-1]
		row.Median = delays[len(delays)/2]
	}
	return row
}

// CoverageCurve returns the cumulative coverage fraction at each elapsed
// mark — the Figure 6/9 time series.
func (s *Study) CoverageCurve(entity string, c Cohort, marks []time.Duration) []float64 {
	recs := s.Select(c)
	out := make([]float64, len(marks))
	if len(recs) == 0 {
		return out
	}
	for i, m := range marks {
		n := 0
		for _, r := range recs {
			if at, ok := eventTime(r, entity); ok {
				if d := r.Delay(at); d >= 0 && d <= m {
					n++
				}
			}
		}
		out[i] = float64(n) / float64(len(recs))
	}
	return out
}

// DetectionCounts returns, per record in the cohort, the number of VT
// engine detections accrued by elapsed — the Figure 7 CDF input.
func (s *Study) DetectionCounts(c Cohort, elapsed time.Duration) []int {
	var out []int
	for _, r := range s.Select(c) {
		n := 0
		for _, d := range r.VTDetections {
			if r.Delay(d) <= elapsed {
				n++
			}
		}
		out = append(out, n)
	}
	return out
}

// CDF returns P(X <= x) over the integer samples for each x in xs.
func CDF(samples []int, xs []int) []float64 {
	out := make([]float64, len(xs))
	if len(samples) == 0 {
		return out
	}
	for i, x := range xs {
		n := 0
		for _, s := range samples {
			if s <= x {
				n++
			}
		}
		out[i] = float64(n) / float64(len(samples))
	}
	return out
}

// MedianInt returns the median of integer samples (0 when empty).
func MedianInt(samples []int) int {
	if len(samples) == 0 {
		return 0
	}
	s := append([]int(nil), samples...)
	sort.Ints(s)
	return s[len(s)/2]
}

// BrandHistogram counts targeted brands over the cohort (Figure 5).
func (s *Study) BrandHistogram(c Cohort) map[string]int {
	out := map[string]int{}
	for _, r := range s.Select(c) {
		if r.Target.Brand != "" {
			out[r.Target.Brand]++
		}
	}
	return out
}

// TopBrands returns the n most-targeted brand keys in descending order.
func (s *Study) TopBrands(c Cohort, n int) []string {
	h := s.BrandHistogram(c)
	keys := make([]string, 0, len(h))
	for k := range h {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if h[keys[i]] != h[keys[j]] {
			return h[keys[i]] > h[keys[j]]
		}
		return keys[i] < keys[j]
	})
	if n > len(keys) {
		n = len(keys)
	}
	return keys[:n]
}

// EvasiveCensus is the §5.5 breakdown for one FWB service.
type EvasiveCensus struct {
	Service  string
	Total    int
	TwoStep  int
	IFrame   int
	DriveBy  int
	NoFields int // URLs without credential fields
}

// EvasiveByService computes the §5.5 census over FWB records.
func (s *Study) EvasiveByService() map[string]*EvasiveCensus {
	out := map[string]*EvasiveCensus{}
	for _, r := range s.Select(FWBCohort) {
		key := r.Target.Service.Key
		c, ok := out[key]
		if !ok {
			c = &EvasiveCensus{Service: r.Target.Service.Name}
			out[key] = c
		}
		c.Total++
		if r.Target.TwoStepLink {
			c.TwoStep++
		}
		if r.Target.HiddenIFrame {
			c.IFrame++
		}
		if r.Target.DriveByDownload {
			c.DriveBy++
		}
		if !r.Target.HasCredentialFields {
			c.NoFields++
		}
	}
	return out
}

// MedianDomainAge returns the cohort's median WHOIS domain age — the §3
// contrast (13.7 years FWB vs 71 days self-hosted).
func (s *Study) MedianDomainAge(c Cohort) time.Duration {
	var ages []time.Duration
	for _, r := range s.Select(c) {
		ages = append(ages, r.Target.DomainAge)
	}
	if len(ages) == 0 {
		return 0
	}
	sort.Slice(ages, func(i, j int) bool { return ages[i] < ages[j] })
	return ages[len(ages)/2]
}

// Fraction reports the share of cohort records satisfying pred.
func (s *Study) Fraction(c Cohort, pred func(*Record) bool) float64 {
	recs := s.Select(c)
	if len(recs) == 0 {
		return 0
	}
	n := 0
	for _, r := range recs {
		if pred(r) {
			n++
		}
	}
	return float64(n) / float64(len(recs))
}

// TimelinePoint is one interval of the measurement window.
type TimelinePoint struct {
	Start    time.Time
	FWB      int
	Self     int
	Detected int // URLs any blocklist listed within the interval of sharing
}

// Timeline buckets the study's URLs by share time — the measurement-window
// companion to Figure 1's historical series, showing the rising zero-day
// volume FreePhish streamed week over week.
func (s *Study) Timeline(bucket time.Duration) []TimelinePoint {
	if len(s.Records) == 0 || bucket <= 0 {
		return nil
	}
	start := s.Records[0].Target.SharedAt
	end := start
	for _, r := range s.Records {
		if r.Target.SharedAt.Before(start) {
			start = r.Target.SharedAt
		}
		if r.Target.SharedAt.After(end) {
			end = r.Target.SharedAt
		}
	}
	start = start.Truncate(bucket)
	n := int(end.Sub(start)/bucket) + 1
	points := make([]TimelinePoint, n)
	for i := range points {
		points[i].Start = start.Add(time.Duration(i) * bucket)
	}
	for _, r := range s.Records {
		i := int(r.Target.SharedAt.Sub(start) / bucket)
		if i < 0 || i >= n {
			continue
		}
		if r.Target.IsFWB() {
			points[i].FWB++
		} else {
			points[i].Self++
		}
		for _, v := range r.Blocklist {
			if v.Detected {
				points[i].Detected++
				break
			}
		}
	}
	return points
}

// CategoryHistogram counts targeted-brand sectors over the cohort — the
// sector view of Figure 5 (banks vs social vs couriers …).
func (s *Study) CategoryHistogram(c Cohort, categoryOf func(brandKey string) string) map[string]int {
	out := map[string]int{}
	for _, r := range s.Select(c) {
		if r.Target.Brand == "" {
			continue
		}
		if cat := categoryOf(r.Target.Brand); cat != "" {
			out[cat]++
		}
	}
	return out
}

// TimeToCoverage returns how long after first share the entity needs to
// cover the given fraction of the cohort, and whether it ever does within
// the horizon — the "GSB reaches 50% of self-hosted URLs in under an hour"
// style of statement Figures 6 and 9 support.
func (s *Study) TimeToCoverage(entity string, c Cohort, frac float64, horizon time.Duration) (time.Duration, bool) {
	recs := s.Select(c)
	if len(recs) == 0 || frac <= 0 {
		return 0, false
	}
	var delays []time.Duration
	for _, r := range recs {
		if at, ok := eventTime(r, entity); ok {
			if d := r.Delay(at); d >= 0 && d <= horizon {
				delays = append(delays, d)
			}
		}
	}
	need := int(frac * float64(len(recs)))
	if need < 1 {
		need = 1
	}
	if len(delays) < need {
		return 0, false
	}
	sort.Slice(delays, func(i, j int) bool { return delays[i] < delays[j] })
	return delays[need-1], true
}

// SpearmanRho computes Spearman's rank correlation between two equal-length
// vectors (ties get average ranks). It returns 0 for degenerate input.
// Used to test the paper's observation that heavily-abused FWBs receive
// more blocklist scrutiny: rank-correlate per-service abuse volume with
// per-service coverage.
func SpearmanRho(xs, ys []float64) float64 {
	n := len(xs)
	if n < 2 || len(ys) != n {
		return 0
	}
	rx := ranks(xs)
	ry := ranks(ys)
	// Pearson over ranks.
	var mx, my float64
	for i := 0; i < n; i++ {
		mx += rx[i]
		my += ry[i]
	}
	mx /= float64(n)
	my /= float64(n)
	var num, dx, dy float64
	for i := 0; i < n; i++ {
		a, b := rx[i]-mx, ry[i]-my
		num += a * b
		dx += a * a
		dy += b * b
	}
	if dx == 0 || dy == 0 {
		return 0
	}
	return num / (sqrt(dx) * sqrt(dy))
}

func ranks(xs []float64) []float64 {
	n := len(xs)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	out := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j+1 < n && xs[idx[j+1]] == xs[idx[i]] {
			j++
		}
		avg := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			out[idx[k]] = avg
		}
		i = j + 1
	}
	return out
}

func sqrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	// Newton's method is plenty here; avoids importing math for one call.
	z := x
	for i := 0; i < 20; i++ {
		z = (z + x/z) / 2
	}
	return z
}
