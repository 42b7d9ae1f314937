package webgen

import (
	"time"

	"freephish/internal/fwb"
)

// SamplePages returns a fixed corpus with every kind of page a study
// generates, from NewGenerator(seed) with no WHOIS or CT side effects:
// for each FWB service a benign site and one phishing site of each
// malicious kind, then self-hosted hand-rolled and kit phishing pages
// (two per kit family, drawn at random) and benign self-hosted sites. It
// is the shared input of the parser and feature differential tests.
func SamplePages(seed int64, at time.Time) []*fwb.Site {
	g := NewGenerator(seed, nil, nil)
	var out []*fwb.Site
	for _, svc := range fwb.All() {
		out = append(out, g.BenignFWBSite(svc, at))
		for _, kind := range []fwb.SiteKind{fwb.KindPhishing, fwb.KindTwoStep, fwb.KindIFrameEmbed, fwb.KindDriveByDL} {
			out = append(out, g.PhishingFWBSiteOf(svc, kind, at))
		}
	}
	for i := 0; i < 2*len(kits); i++ {
		site, _ := g.SelfHostedKitPhishing(at)
		out = append(out, site, g.SelfHostedPhishing(at), g.BenignSelfHosted(at))
	}
	return out
}
