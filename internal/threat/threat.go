// Package threat defines the Target type: everything the anti-phishing
// ecosystem can observe about one shared URL. The blocklist, browser-tool,
// platform, and hosting-response simulations all assess Targets; the
// FreePhish analysis module aggregates their verdicts into the paper's
// tables and figures.
package threat

import (
	"strings"
	"time"

	"freephish/internal/ctlog"
	"freephish/internal/features"
	"freephish/internal/fwb"
	"freephish/internal/htmlx"
	"freephish/internal/simclock"
	"freephish/internal/urlx"
	"freephish/internal/whois"
)

// Platform identifies the social network a URL was shared on.
type Platform string

// The two platforms the paper streams from.
const (
	Twitter  Platform = "twitter"
	Facebook Platform = "facebook"
)

// FWBIndexedRate is the fraction of FWB URLs indexed by search engines
// (Section 3: only 4.1% of the 25.2K historical FWB URLs were indexed).
const FWBIndexedRate = 0.041

// SelfHostedIndexedRate is the corresponding rate for self-hosted phishing
// sites, which acquire incoming links from spam campaigns.
const SelfHostedIndexedRate = 0.45

// Target is one URL under longitudinal observation.
type Target struct {
	URL      string
	Site     *fwb.Site
	Service  *fwb.Service // nil for self-hosted
	Kind     fwb.SiteKind
	Brand    string
	SharedAt time.Time
	Platform Platform
	PostID   string

	// Signals visible to detectors, derived from the crawled page and the
	// registrar/CT infrastructure — the Section 3 evasion properties.
	HasCredentialFields bool
	Noindex             bool
	BannerObfuscated    bool
	HiddenIFrame        bool
	DriveByDownload     bool
	TwoStepLink         bool
	DomainAge           time.Duration
	CertType            ctlog.ValidationType
	InCTLog             bool
	SearchIndexed       bool
	TLS                 bool
}

// IsFWB reports whether the target is hosted on a free website builder.
func (t *Target) IsFWB() bool { return t.Service != nil }

// Evasive reports whether the target is one of the §5.5 credential-less
// variants.
func (t *Target) Evasive() bool {
	return t.TwoStepLink || t.HiddenIFrame || t.DriveByDownload
}

// Derive builds a Target from a hosted site and its share event, consulting
// WHOIS and the CT log exactly as an external observer would. rng decides
// the search-indexing lottery (incoming links are outside the page's
// control).
func Derive(site *fwb.Site, sharedAt time.Time, platform Platform, postID string,
	db *whois.DB, ct *ctlog.Log, rng *simclock.RNG) *Target {
	return DeriveFromPage(site, site.HTML, nil, sharedAt, platform, postID, db, ct, rng)
}

// DeriveFromPage is Derive with the page content supplied explicitly — the
// crawler path, where the analyzed HTML is the crawled snapshot rather than
// the site's stored body. doc, when non-nil, must be htmlx.Parse(html):
// the caller's parse of the page, analyzed in place of a fresh one. It is
// only read.
func DeriveFromPage(site *fwb.Site, html string, doc *htmlx.Node, sharedAt time.Time, platform Platform, postID string,
	db *whois.DB, ct *ctlog.Log, rng *simclock.RNG) *Target {

	t := &Target{
		URL:      site.URL,
		Site:     site,
		Service:  site.Service,
		Kind:     site.Kind,
		Brand:    site.Brand,
		SharedAt: sharedAt,
		Platform: platform,
		PostID:   postID,
		TLS:      strings.HasPrefix(site.URL, "https://"),
	}
	if doc == nil {
		doc = htmlx.Parse(html)
	}
	analyzePage(t, doc)

	if u, err := urlx.Parse(site.URL); err == nil {
		if db != nil {
			if age, err := db.AgeAt(u.Host, sharedAt); err == nil {
				t.DomainAge = age
			}
		}
		if ct != nil {
			// A CT watcher streams new entries, so only certificates logged
			// around site creation make the site discoverable. FWB sites
			// inherit the service's old wildcard cert — no new entry, no
			// discovery (§3).
			t.InCTLog = ct.ContainsHostSince(u.Host, site.Created.Add(-48*time.Hour))
		}
	}
	if site.Service != nil {
		t.CertType = site.Service.CertType
	} else if t.TLS {
		t.CertType = ctlog.DV
	}
	if rng != nil {
		rate := SelfHostedIndexedRate
		if t.IsFWB() {
			rate = FWBIndexedRate
		}
		t.SearchIndexed = !t.Noindex && rng.Bool(rate)
	}
	return t
}

// analyzePage derives the page-content signals from the parsed page — the
// same heuristics the FreePhish qualitative analysis automated (§5.5) — in
// one walk of the tree.
func analyzePage(t *Target, doc *htmlx.Node) {
	host := ""
	if u, err := urlx.Parse(t.URL); err == nil {
		host = u.Host
	}
	doc.Walk(func(n *htmlx.Node) bool {
		if n.Type != htmlx.ElementNode {
			return true
		}
		switch n.Tag {
		case "input":
			switch n.AttrOr("type", "text") {
			case "password", "email":
				t.HasCredentialFields = true
			}
		case "meta":
			if features.RobotsNoindex(n) {
				t.Noindex = true
			}
		case "iframe":
			if isExternal(n.AttrOr("src", ""), host) {
				t.HiddenIFrame = true
			}
		case "a":
			href := n.AttrOr("href", "")
			if _, dl := n.Attr("download"); dl || hasDangerousExt(href) {
				t.DriveByDownload = true
			}
			if !t.TwoStepLink && isExternal(href, host) && n.Find("button") != nil {
				t.TwoStepLink = true
			}
		}
		if !t.BannerObfuscated && n.HasHiddenStyle() && features.BannerLike(n) {
			t.BannerObfuscated = true
		}
		return true
	})
}

func isExternal(href, host string) bool {
	if !strings.HasPrefix(href, "http://") && !strings.HasPrefix(href, "https://") {
		return false
	}
	hp, err := urlx.Parse(href)
	return err == nil && hp.Host != host && hp.Host != ""
}

func hasDangerousExt(href string) bool {
	h := strings.ToLower(href)
	for _, ext := range []string{".exe", ".scr", ".apk", ".msi", ".bat"} {
		if strings.HasSuffix(h, ext) {
			return true
		}
	}
	return false
}
