package world

import (
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"freephish/internal/blocklist"
	"freephish/internal/ctlog"
	"freephish/internal/fwb"
	"freephish/internal/report"
	"freephish/internal/simclock"
	"freephish/internal/social"
	"freephish/internal/threat"
	"freephish/internal/vtsim"
	"freephish/internal/webgen"
	"freephish/internal/whois"
)

// Sim is the simulated world substrate: the registrar/CA infrastructure,
// the virtual-host web, the two social platforms, the anti-phishing
// ecosystem, and the disclosure recipients. Both backends run against the
// same Sim — the inproc adapters call its methods directly, the http
// adapters reach the same methods through SimAPI and the component
// servers — which is why the two backends produce bit-identical studies:
// every stateful call arrives in the same order and draws from the same
// RNG streams.
type Sim struct {
	Seed  int64
	Epoch time.Time
	Clock *simclock.Clock

	Whois      *whois.DB
	CT         *ctlog.Log
	Host       *fwb.Host
	Gen        *webgen.Generator
	Networks   map[threat.Platform]*social.Network
	Entities   []*blocklist.Entity
	Scanner    *vtsim.Scanner
	Moderation map[threat.Platform]*social.Moderation
	Reporter   *report.Reporter
	// Feeds are the blocklists' queryable lookup APIs, populated as
	// entities detect URLs during the run.
	Feeds map[string]*blocklist.Feed

	// mu serializes the assessment paths' side effects (feed listings,
	// takedowns) so the same Sim can sit behind concurrent HTTP handlers.
	// Every assessment draw comes from an RNG stream keyed by the assessed
	// URL (see urlRNG), so the outcome for a URL is independent of how many
	// other URLs were assessed first — the property sharding relies on.
	mu sync.Mutex
}

// urlRNG derives the RNG stream for one assessment of one URL. Each URL is
// assessed at most once per path (the pipeline dedups before classifying),
// so keying by (stream, URL) pins every verdict, profile jitter, and
// moderation outcome to the URL itself rather than to the global order of
// assessments — which is what makes an N-shard study's draws identical to
// the 1-shard run's.
func (s *Sim) urlRNG(stream, url string) *simclock.RNG {
	return simclock.NewRNG(s.Seed, stream+"|"+url)
}

// NewSim assembles the simulated world. The construction order is
// load-bearing: it fixes the generator sequences every seed's study is
// defined by. Assessment and posting draws come from keyed streams
// (urlRNG, the per-event streams in SchedulePosts), not from construction
// order, so they survive partitioning.
func NewSim(seed int64, epoch time.Time, clock *simclock.Clock) *Sim {
	s := &Sim{
		Seed:       seed,
		Epoch:      epoch,
		Clock:      clock,
		Whois:      &whois.DB{},
		CT:         &ctlog.Log{},
		Entities:   blocklist.Standard(),
		Scanner:    vtsim.NewScanner(),
		Moderation: social.StandardModeration(),
		Reporter:   report.NewReporter(seed),
	}
	s.Feeds = make(map[string]*blocklist.Feed, len(s.Entities))
	for _, e := range s.Entities {
		s.Feeds[e.Name] = blocklist.NewFeed(e.Name, clock.Now)
	}
	s.Host = fwb.NewHost(clock.Now)
	s.Gen = webgen.NewGenerator(seed, s.Whois, s.CT)
	s.Gen.RegisterInfrastructure(epoch)
	// Host the second-stage pages behind two-step/iframe attacks so the
	// full Figure 11 chain is crawlable (name collisions are impossible —
	// slugs carry a generation sequence number).
	s.Gen.OnSecondary = func(site *fwb.Site) { _ = s.Host.Publish(site) }
	s.Networks = map[threat.Platform]*social.Network{
		threat.Twitter:  social.NewNetwork(threat.Twitter, clock.Now),
		threat.Facebook: social.NewNetwork(threat.Facebook, clock.Now),
	}
	return s
}

// --- SiteIntel ---

// Resolve attributes a URL to its hosting via the registry.
func (s *Sim) Resolve(url string) (SiteInfo, error) {
	site := s.Host.Lookup(url)
	if site == nil {
		return SiteInfo{}, nil
	}
	info := SiteInfo{Hosted: true, IsFWB: site.Service != nil}
	if site.Service != nil {
		info.ServiceKey = site.Service.Key
	}
	return info, nil
}

// Profile derives the threat profile of a crawled page, consulting WHOIS
// and the CT log exactly as an external observer would. It parses
// req.HTML only when req.Doc is nil.
func (s *Sim) Profile(req ProfileRequest) (*threat.Target, error) {
	site := s.Host.Lookup(req.URL)
	if site == nil {
		return nil, fmt.Errorf("world: profile %q: not hosted", req.URL)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return threat.DeriveFromPage(site, req.HTML, req.Doc, req.SharedAt, req.Platform, req.PostID,
		s.Whois, s.CT, s.urlRNG("assess.profile", req.URL)), nil
}

// --- ThreatFeeds ---

// Assess runs the blocklist entities (in their fixed slice order) and the
// VT scanner against the target; detections become visible on the feeds.
func (s *Sim) Assess(t *threat.Target) (map[string]blocklist.Verdict, []time.Time, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rng := s.urlRNG("assess.feeds", t.URL)
	verdicts := make(map[string]blocklist.Verdict, len(s.Entities))
	for _, e := range s.Entities {
		v := e.Assess(t, rng)
		verdicts[e.Name] = v
		if v.Detected {
			s.Feeds[e.Name].List(t.URL, v.At)
		}
	}
	return verdicts, s.Scanner.Assess(t, rng), nil
}

// Listed reports whether the entity's feed currently lists the URL.
func (s *Sim) Listed(entity, url string) (bool, error) {
	feed, ok := s.Feeds[entity]
	if !ok {
		return false, fmt.Errorf("world: unknown feed %q", entity)
	}
	_, listed := feed.Lookup(url)
	return listed, nil
}

// FeedNames returns the entities in their fixed assessment order.
func (s *Sim) FeedNames() []string {
	names := make([]string, len(s.Entities))
	for i, e := range s.Entities {
		names[i] = e.Name
	}
	return names
}

// --- PlatformOps ---

// AssessModeration decides if and when the platform removes the post.
func (s *Sim) AssessModeration(t *threat.Target) (bool, time.Time, error) {
	m, ok := s.Moderation[t.Platform]
	if !ok {
		return false, time.Time{}, fmt.Errorf("world: no moderation model for %q", t.Platform)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	removed, at := m.Assess(t, s.urlRNG("assess.mod", t.URL))
	return removed, at, nil
}

// RemovePost deletes the post; a post that no longer exists is a no-op.
func (s *Sim) RemovePost(platform threat.Platform, postID string, at time.Time) error {
	nw, ok := s.Networks[platform]
	if !ok {
		return fmt.Errorf("world: unknown platform %q", platform)
	}
	if post := nw.Lookup(postID); post != nil {
		post.Remove(at)
	}
	return nil
}

// LookupPost reports a post's existence and removal state.
func (s *Sim) LookupPost(platform threat.Platform, postID string) (PostStatus, error) {
	nw, ok := s.Networks[platform]
	if !ok {
		return PostStatus{}, fmt.Errorf("world: unknown platform %q", platform)
	}
	post := nw.Lookup(postID)
	if post == nil {
		return PostStatus{}, nil
	}
	rm, rmAt := post.Removed()
	return PostStatus{Exists: true, Removed: rm, RemovedAt: rmAt}, nil
}

// --- ReportChannel ---

// Disclose files the §4.3 report: FWB attacks go to the hosting service,
// self-hosted ones to the hosting provider. A granted removal takes the
// site down at the reported time.
func (s *Sim) Disclose(t *threat.Target, at time.Time) (report.Outcome, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var o report.Outcome
	if t.IsFWB() {
		o = s.Reporter.ReportToFWB(t, at)
	} else {
		o = s.Reporter.SelfHostedTakedown(t)
	}
	if o.Removed {
		if site := s.Host.Lookup(t.URL); site != nil {
			site.TakeDown(o.RemovedAt, "host")
		}
	}
	return o, nil
}

// --- Oracle ---

// Truth returns the ground-truth label for a hosted URL.
func (s *Sim) Truth(url string) (GroundTruth, error) {
	site := s.Host.Lookup(url)
	if site == nil {
		return GroundTruth{}, nil
	}
	return GroundTruth{Known: true, Malicious: site.Kind.IsMalicious()}, nil
}

// Release frees the site's retained page body: nothing re-fetches a
// processed site's stored HTML, and the full-scale study would otherwise
// hold ~100k page bodies in memory.
func (s *Sim) Release(url string) error {
	if site := s.Host.Lookup(url); site != nil {
		site.HTML = ""
	}
	return nil
}

// --- checkpoint resume ---

// Replay is one study record's externally-visible outcome, re-applied to a
// freshly reconstructed world on checkpoint resume. Replaying the posting
// schedule (SchedulePosts + Clock.RunUntil) rebuilds the posts and sites
// deterministically, but the ecosystem's *reactions* — feed listings from
// Assess, post removals from moderation, host takedowns from disclosure —
// happened through assessment calls the resumed run never makes again.
// They are all recorded on the record, and all idempotent first-wins
// mutations, so re-applying them restores the world to the cut instant.
type Replay struct {
	URL      string
	Platform threat.Platform
	PostID   string
	// Listings maps entity name to the recorded listing time (possibly
	// after the cut instant — feeds hide future-dated listings until then,
	// exactly as the uninterrupted run would).
	Listings map[string]time.Time
	// PostRemovedAt / HostRemovedAt, when non-zero, re-apply the platform
	// moderation and hosting takedown outcomes.
	PostRemovedAt time.Time
	HostRemovedAt time.Time
}

// ReplayOutcome re-applies one record's recorded outcome. Every mutation
// is first-wins and keyed by URL or post ID, so replay order is free and
// re-applying an already-present outcome is a no-op.
func (s *Sim) ReplayOutcome(r Replay) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for name, at := range r.Listings {
		if feed := s.Feeds[name]; feed != nil {
			feed.List(r.URL, at)
		}
	}
	if !r.PostRemovedAt.IsZero() {
		if nw := s.Networks[r.Platform]; nw != nil {
			if post := nw.Lookup(r.PostID); post != nil {
				post.Remove(r.PostRemovedAt)
			}
		}
	}
	if !r.HostRemovedAt.IsZero() {
		if site := s.Host.Lookup(r.URL); site != nil {
			site.TakeDown(r.HostRemovedAt, "host")
		}
	}
}

// --- posting schedule ---

// PostingPlan lays out the six posting populations (already scaled) over
// the measurement window.
type PostingPlan struct {
	FWBTwitter     int
	FWBFacebook    int
	SelfTwitter    int
	SelfFacebook   int
	BenignTwitter  int
	BenignFacebook int
	// Duration of the window; the posting rate rises as t^GrowthExponent.
	Duration       time.Duration
	GrowthExponent float64
	// ReshareRate is the expected number of additional posts re-sharing
	// each phishing URL.
	ReshareRate float64
	// Shard/Shards partition the schedule: only events whose global
	// ordinal falls in this shard's residue class are scheduled. Shards of
	// 0 or 1 schedules everything. Because every event's draws — its
	// schedule time, its generated site, its post text, its reshares —
	// come from streams keyed by the event's global ordinal, the union of
	// the N shards' worlds is exactly the 1-shard world.
	Shard, Shards int
}

// postEvent is one scheduled posting event: the event's global ordinal
// across the six populations, and its private RNG/generator streams.
type postEvent struct {
	ordinal  int
	platform threat.Platform
	kind     string // "fwb", "self", "benign"
	rng      *simclock.RNG
	gen      *webgen.Generator
}

// SchedulePosts lays out every attacker and benign posting event across
// the window, with the posting rate rising as t^GrowthExponent. Events are
// numbered globally across the six populations in fixed order; every draw
// an event makes comes from streams keyed by that ordinal alone, so any
// subset of the events can be scheduled (PostingPlan.Shard/Shards) without
// perturbing the rest.
func (s *Sim) SchedulePosts(plan PostingPlan) {
	type spec struct {
		platform threat.Platform
		kind     string // "fwb", "self", "benign"
		count    int
	}
	specs := []spec{
		{threat.Twitter, "fwb", plan.FWBTwitter},
		{threat.Facebook, "fwb", plan.FWBFacebook},
		{threat.Twitter, "self", plan.SelfTwitter},
		{threat.Facebook, "self", plan.SelfFacebook},
		{threat.Twitter, "benign", plan.BenignTwitter},
		{threat.Facebook, "benign", plan.BenignFacebook},
	}
	ordinal := 0
	for _, sp := range specs {
		for i := 0; i < sp.count; i++ {
			ord := ordinal
			ordinal++
			if plan.Shards > 1 && ord%plan.Shards != plan.Shard {
				continue
			}
			key := "post.event." + strconv.Itoa(ord)
			ev := postEvent{
				ordinal:  ord,
				platform: sp.platform,
				kind:     sp.kind,
				rng:      simclock.NewRNG(s.Seed, key),
				// The tag is a decimal ordinal closed by a non-digit, so a
				// tagged name suffix can never collide with another event's
				// or with the untagged corpus names (pure digits).
				gen: s.Gen.Derive(key, "e"+strconv.Itoa(ord)+"x"),
			}
			// Inverse-CDF of a rising rate: density ∝ t^(g-1).
			u := (float64(i) + ev.rng.Float64()) / float64(sp.count)
			frac := math.Pow(u, 1/plan.GrowthExponent)
			at := s.Epoch.Add(time.Duration(frac * float64(plan.Duration)))
			s.Clock.Schedule(at, "post."+sp.kind, func(now time.Time) {
				s.createAndPost(ev, plan.ReshareRate, now)
			})
		}
	}
}

// createAndPost generates a site, publishes it, and shares it. All draws
// come from the event's private streams, and every draw — including the
// reshare texts — happens in this frame, so the event's effects depend
// only on its ordinal and fire time, never on what other events ran.
func (s *Sim) createAndPost(ev postEvent, reshareRate float64, now time.Time) {
	var site *fwb.Site
	var text string
	switch ev.kind {
	case "fwb":
		site = ev.gen.PhishingFWBSite(ev.gen.PickService(), now)
		text = ev.gen.LureText(site.URL)
	case "self":
		site, _ = ev.gen.SelfHostedAttack(now)
		text = ev.gen.LureText(site.URL)
	default:
		// Benign background noise: mostly FWB sites, with a slice of
		// ordinary self-hosted small-business sites so "own domain" is not
		// a phishing oracle for the base model.
		if ev.rng.Bool(0.3) {
			site = ev.gen.BenignSelfHosted(now)
		} else {
			site = ev.gen.BenignFWBSite(ev.gen.PickServiceUniform(), now)
		}
		text = ev.gen.BenignPostText(site.URL)
	}
	if err := s.Host.Publish(site); err != nil {
		// Name collision: drop the event (vanishingly rare).
		return
	}
	// Post IDs derive from the event ordinal ("-e<ordinal>"), disjoint from
	// the plain sequential IDs Publish hands out, so the same post carries
	// the same ID on every shard layout.
	s.Networks[ev.platform].PublishID(fmt.Sprintf("%s-e%d", ev.platform, ev.ordinal), text, now)
	// Reshares: additional posts spread the same URL over the following
	// hours. Only malicious URLs get amplified (lure campaigns repost).
	// Their delays and texts are drawn here, eagerly, so the scheduled
	// closures perform no draws of their own.
	if ev.kind != "benign" && reshareRate > 0 {
		n := ev.rng.Poisson(reshareRate)
		for k := 0; k < n; k++ {
			delay := time.Duration(ev.rng.ExpFloat64() * float64(6*time.Hour))
			id := fmt.Sprintf("%s-e%d-r%d", ev.platform, ev.ordinal, k)
			txt := ev.gen.LureText(site.URL)
			nw := s.Networks[ev.platform]
			s.Clock.Schedule(now.Add(delay), "post.reshare", func(at time.Time) {
				nw.PublishID(id, txt, at)
			})
		}
	}
}

// GroundTruthCorpus generates the §4.2 labeled corpora: n pairs per class
// for the FWB model, plus the matched self-hosted corpus for the base
// StackModel. The generator call order is fixed — it defines the corpus
// every seed's classifiers are trained on.
func (s *Sim) GroundTruthCorpus(n int) (fwbSamples, selfSamples []Sample) {
	for i := 0; i < n; i++ {
		p := s.Gen.PhishingFWBSite(s.Gen.PickService(), s.Epoch)
		fwbSamples = append(fwbSamples, Sample{URL: p.URL, HTML: p.HTML, Label: 1})
		b := s.Gen.BenignFWBSite(s.Gen.PickServiceUniform(), s.Epoch)
		benign := Sample{URL: b.URL, HTML: b.HTML}
		fwbSamples = append(fwbSamples, benign)

		sh, _ := s.Gen.SelfHostedAttack(s.Epoch)
		selfSamples = append(selfSamples, Sample{URL: sh.URL, HTML: sh.HTML, Label: 1}, benign)
		// Every other benign self-hosted sample keeps the base model from
		// equating own-domain hosting with phishing.
		if i%2 == 0 {
			bs := s.Gen.BenignSelfHosted(s.Epoch)
			selfSamples = append(selfSamples, Sample{URL: bs.URL, HTML: bs.HTML})
		}
	}
	return fwbSamples, selfSamples
}

// --- HTTP handler accessors (for both backends' servers/transports) ---

// WebHandler serves every simulated domain by virtual host.
func (s *Sim) WebHandler() http.Handler { return s.Host }

// PlatformHandler serves one platform's API: the streaming feed plus the
// removal and status endpoints PlatformOps needs.
func (s *Sim) PlatformHandler(p threat.Platform) (http.Handler, bool) {
	nw, ok := s.Networks[p]
	return nw, ok
}

// Platforms returns the simulated platforms in a stable order.
func (s *Sim) Platforms() []threat.Platform {
	plats := make([]threat.Platform, 0, len(s.Networks))
	for p := range s.Networks {
		plats = append(plats, p)
	}
	sort.Slice(plats, func(i, j int) bool { return plats[i] < plats[j] })
	return plats
}

// FeedHandler serves one blocklist feed's lookup API.
func (s *Sim) FeedHandler(name string) (http.Handler, bool) {
	feed, ok := s.Feeds[name]
	return feed, ok
}
