// Package world defines the ports through which the FreePhish pipeline
// touches everything outside itself — the social-media firehose, the web,
// hosting intelligence, the anti-phishing ecosystem, and the disclosure
// channels — plus two interchangeable adapter sets:
//
//   - Inproc wires the ports straight to the simulation substrate (Sim),
//     with the fetcher reading snapshots from the virtual-host web through
//     Snapshots and the poller reading pages from the platforms through
//     Pages. No sockets and no net/http on the study path, bit-identical
//     to the study the pipeline has always produced.
//   - OverHTTP speaks to real net/http servers: the virtual-host web
//     server, the platform APIs, the blocklist feeds, and a SimAPI server
//     exposing intelligence/assessment/report endpoints. This is the
//     deployment shape: swap the servers for Twitter/CrowdTangle-style
//     APIs and real blocklist lookups and the pipeline is unchanged.
//
// The pipeline (internal/core's probe/apply/monitor paths) imports only
// this package's interfaces; it never reaches into fwb/social/vtsim
// internals. Ground truth is behind its own Oracle port so the evaluation
// harness — not the pipeline — is the only consumer of labels.
package world

import (
	"time"

	"freephish/internal/blocklist"
	"freephish/internal/crawler"
	"freephish/internal/features"
	"freephish/internal/htmlx"
	"freephish/internal/report"
	"freephish/internal/threat"
)

// SiteInfo is what hosting intelligence reveals about a URL: whether the
// crawled page is a site we can attribute, and whether it sits on one of
// the 17 free website building services.
type SiteInfo struct {
	Hosted     bool
	IsFWB      bool
	ServiceKey string // FWB service key ("weebly", ...); "" for self-hosted
}

// ProfileRequest asks SiteIntel to derive the full threat profile of a
// crawled page: the §3 evasion signals from the HTML plus WHOIS age and
// CT-log visibility from the registrar/CA infrastructure.
type ProfileRequest struct {
	URL      string
	HTML     string
	SharedAt time.Time
	Platform threat.Platform
	PostID   string
	// Doc, when set, must be htmlx.Parse(HTML) — the parse the fetch stage
	// already made — and spares the profile its own parse of HTML. It is
	// never sent over the wire: the http backend's server parses HTML
	// itself.
	Doc *htmlx.Node
}

// PostStatus is a platform API's answer about one post.
type PostStatus struct {
	Exists    bool
	Removed   bool
	RemovedAt time.Time
}

// GroundTruth is the oracle's label for a URL. Only the evaluation
// component may consult it; the pipeline itself never sees labels.
type GroundTruth struct {
	Known     bool
	Malicious bool
}

// Sample is one labeled ground-truth page for classifier training.
type Sample struct {
	URL   string
	HTML  string
	Label int
}

// URLStream is the streaming module's source: one poll returns the URLs
// shared on the monitored platforms since the previous poll.
type URLStream interface {
	Poll(now time.Time) ([]crawler.StreamedURL, error)
}

// Snapshotter captures a website snapshot over HTTP. A non-200 status is
// not an error — 404/410 is the "taken down" signal.
type Snapshotter interface {
	Snapshot(url string) (features.Page, int, error)
}

// SiteIntel resolves hosting attribution and derives threat profiles.
type SiteIntel interface {
	// Resolve attributes a URL to its hosting. Unattributable URLs return
	// SiteInfo{Hosted: false}, not an error.
	Resolve(url string) (SiteInfo, error)
	// Profile derives the Target for a flagged page. It must be called at
	// most once per URL, after Resolve reported the URL hosted.
	Profile(req ProfileRequest) (*threat.Target, error)
}

// ThreatFeeds is the anti-phishing ecosystem: the blocklist entities, the
// VirusTotal-style scanner, and the feeds' queryable lookup APIs.
type ThreatFeeds interface {
	// Assess runs every blocklist entity and the VT scanner against a
	// profiled target, returning per-entity verdicts and sorted VT engine
	// detection times. Detected URLs become visible on the entity's feed.
	Assess(t *threat.Target) (map[string]blocklist.Verdict, []time.Time, error)
	// Listed reports whether the entity's feed currently lists the URL —
	// the §4.4 monitor's 10-minute lookup.
	Listed(entity, url string) (bool, error)
	// FeedNames returns the queryable entities in a stable order.
	FeedNames() []string
}

// PlatformOps is the pipeline's write/read access to the social platforms
// beyond the streaming feed: moderation assessment, post removal, and the
// post-status check the monitor performs.
type PlatformOps interface {
	// AssessModeration decides if and when the platform takes the post
	// down for the profiled target.
	AssessModeration(t *threat.Target) (removed bool, at time.Time, err error)
	// RemovePost deletes the post at the given time. Removing an already
	// gone post is a no-op; an unknown platform is an error.
	RemovePost(platform threat.Platform, postID string, at time.Time) error
	// LookupPost reports a post's existence and removal state.
	LookupPost(platform threat.Platform, postID string) (PostStatus, error)
}

// ReportChannel carries §4.3 disclosures: FWB abuse reports and hosting-
// provider takedown requests. A delivery failure surfaces in
// Outcome.Error, never as a panic — the study records it and moves on.
type ReportChannel interface {
	Disclose(t *threat.Target, at time.Time) (report.Outcome, error)
}

// Oracle is ground truth. It lives behind its own port so that only the
// evaluation component can query labels, and so a deployment (where no
// oracle exists) can plug in a null implementation.
type Oracle interface {
	Truth(url string) (GroundTruth, error)
	// Release drops the oracle's retained page body for the URL — the
	// memory-reclaim hook invoked once a URL has been evaluated.
	Release(url string) error
}

// World bundles every port the pipeline consumes.
type World struct {
	Stream   URLStream
	Snap     Snapshotter
	Intel    SiteIntel
	Feeds    ThreatFeeds
	Platform PlatformOps
	Reports  ReportChannel
	Oracle   Oracle
}
