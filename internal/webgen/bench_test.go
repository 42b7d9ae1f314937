package webgen

import (
	"testing"

	"freephish/internal/fwb"
)

// BenchmarkGeneratePages times one generated page per op for each page
// kind a study generates. FWB kinds cycle over every service; WHOIS and CT
// side effects are off, so only page generation is measured.
func BenchmarkGeneratePages(b *testing.B) {
	all := fwb.All()
	cases := []struct {
		name string
		gen  func(g *Generator, i int) *fwb.Site
	}{
		{"benign-fwb", func(g *Generator, i int) *fwb.Site { return g.BenignFWBSite(all[i%len(all)], at) }},
		{"phish-fwb", func(g *Generator, i int) *fwb.Site { return g.PhishingFWBSite(all[i%len(all)], at) }},
		{"self-hosted", func(g *Generator, i int) *fwb.Site { return g.SelfHostedPhishing(at) }},
		{"kit", func(g *Generator, i int) *fwb.Site { site, _ := g.SelfHostedKitPhishing(at); return site }},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			g := NewGenerator(1, nil, nil)
			b.ReportAllocs()
			n := 0
			for i := 0; i < b.N; i++ {
				n += len(c.gen(g, i).HTML)
			}
			b.ReportMetric(float64(n)/float64(b.N), "B/page")
		})
	}
}
