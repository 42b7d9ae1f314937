package analysis

import (
	"reflect"
	"testing"
	"time"

	"freephish/internal/fwb"
	"freephish/internal/htmlx"
	"freephish/internal/webgen"
)

// TestDocSignatureMatchesPageSignature checks the parsed-page signature
// against the HTML one on every page family the generator emits, so a
// caller that reuses the crawler's parse records the same signature.
func TestDocSignatureMatchesPageSignature(t *testing.T) {
	g := webgen.NewGenerator(5, nil, nil)
	at := time.Date(2022, 11, 1, 0, 0, 0, 0, time.UTC)
	pages := []string{""}
	g.OnSecondary = func(s *fwb.Site) { pages = append(pages, s.HTML) }
	for _, svc := range fwb.All() {
		pages = append(pages, g.BenignFWBSite(svc, at).HTML)
		for _, kind := range []fwb.SiteKind{fwb.KindPhishing, fwb.KindTwoStep, fwb.KindIFrameEmbed, fwb.KindDriveByDL} {
			pages = append(pages, g.PhishingFWBSiteOf(svc, kind, at).HTML)
		}
	}
	for i := 0; i < 20; i++ {
		kit, _ := g.SelfHostedKitPhishing(at)
		pages = append(pages, kit.HTML, g.SelfHostedPhishing(at).HTML, g.BenignSelfHosted(at).HTML)
	}
	for _, h := range pages {
		got, want := DocSignature(htmlx.Parse(h)), PageSignature(h)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("DocSignature = %v, PageSignature = %v for page:\n%s", got, want, h)
		}
		if got == nil {
			t.Fatalf("nil signature for page %q", h)
		}
	}
}
