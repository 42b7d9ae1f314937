package threat

import (
	"fmt"
	"net/url"
	"reflect"
	"testing"
	"time"

	"freephish/internal/ctlog"
	"freephish/internal/fwb"
	"freephish/internal/htmlx"
	"freephish/internal/simclock"
	"freephish/internal/webgen"
	"freephish/internal/whois"
)

var epoch = time.Date(2022, 11, 1, 0, 0, 0, 0, time.UTC)

func world(seed int64) (*webgen.Generator, *whois.DB, *ctlog.Log, *simclock.RNG) {
	var db whois.DB
	var ct ctlog.Log
	g := webgen.NewGenerator(seed, &db, &ct)
	g.RegisterInfrastructure(epoch)
	return g, &db, &ct, simclock.NewRNG(seed, "threat.test")
}

func TestDeriveFWBTarget(t *testing.T) {
	g, db, ct, rng := world(3)
	svc, _ := fwb.ByKey("weebly")
	site := g.PhishingFWBSiteOf(svc, fwb.KindPhishing, epoch)
	tg := Derive(site, epoch, Twitter, "p1", db, ct, rng)

	if !tg.IsFWB() || tg.Service != svc {
		t.Fatalf("target service = %v", tg.Service)
	}
	if !tg.HasCredentialFields {
		t.Error("credential fields not detected")
	}
	if tg.Evasive() {
		t.Error("regular phishing flagged evasive")
	}
	if tg.InCTLog {
		t.Error("FWB site visible in CT log — §3 invisibility broken")
	}
	if tg.CertType != svc.CertType {
		t.Errorf("cert type = %v, want service's %v", tg.CertType, svc.CertType)
	}
	if years := tg.DomainAge.Hours() / 24 / 365; years < 10 {
		t.Errorf("domain age = %.1f years, want Weebly's 16", years)
	}
	if !tg.TLS {
		t.Error("FWB site must be https")
	}
}

func TestDeriveSelfHostedTarget(t *testing.T) {
	g, db, ct, rng := world(5)
	nCT, nTLS := 0, 0
	for i := 0; i < 120; i++ {
		site := g.SelfHostedPhishing(epoch)
		tg := Derive(site, epoch, Facebook, fmt.Sprintf("p%d", i), db, ct, rng)
		if tg.IsFWB() {
			t.Fatal("self-hosted target identified as FWB")
		}
		if days := tg.DomainAge.Hours() / 24; days > 500 {
			t.Errorf("self-hosted domain age = %.0f days", days)
		}
		if tg.TLS {
			nTLS++
			if tg.CertType != ctlog.DV {
				t.Errorf("self-hosted TLS cert = %v, want DV", tg.CertType)
			}
		}
		if tg.InCTLog {
			nCT++
			if !tg.TLS {
				t.Error("non-TLS site in CT log")
			}
		}
	}
	if nCT == 0 {
		t.Fatal("no self-hosted site visible in CT — discovery channel dead")
	}
	if nTLS < 40 {
		t.Fatalf("TLS count = %d", nTLS)
	}
}

func TestDeriveEvasiveVariants(t *testing.T) {
	g, db, ct, rng := world(7)
	gs, _ := fwb.ByKey("googlesites")
	cases := []struct {
		kind  fwb.SiteKind
		check func(*Target) bool
		name  string
	}{
		{fwb.KindTwoStep, func(tg *Target) bool { return tg.TwoStepLink }, "two-step"},
		{fwb.KindIFrameEmbed, func(tg *Target) bool { return tg.HiddenIFrame }, "iframe"},
		{fwb.KindDriveByDL, func(tg *Target) bool { return tg.DriveByDownload }, "drive-by"},
	}
	for _, c := range cases {
		site := g.PhishingFWBSiteOf(gs, c.kind, epoch)
		tg := Derive(site, epoch, Twitter, "p", db, ct, rng)
		if !c.check(tg) {
			t.Errorf("%s signal not derived from page content", c.name)
		}
		if !tg.Evasive() {
			t.Errorf("%s target not Evasive()", c.name)
		}
		if tg.HasCredentialFields {
			t.Errorf("%s target has credential fields", c.name)
		}
	}
}

func TestDeriveNoindexAndBannerRates(t *testing.T) {
	g, db, ct, rng := world(9)
	svc, _ := fwb.ByKey("wix")
	noindex, banner, indexed := 0, 0, 0
	const n = 500
	for i := 0; i < n; i++ {
		site := g.PhishingFWBSiteOf(svc, fwb.KindPhishing, epoch)
		tg := Derive(site, epoch, Twitter, "p", db, ct, rng)
		if tg.Noindex {
			noindex++
			if tg.SearchIndexed {
				t.Fatal("noindex page marked search-indexed")
			}
		}
		if tg.BannerObfuscated {
			banner++
		}
		if tg.SearchIndexed {
			indexed++
		}
	}
	if f := float64(noindex) / n; f < 0.35 || f > 0.55 {
		t.Errorf("noindex rate = %.2f, want ≈0.447", f)
	}
	if f := float64(banner) / n; f < 0.42 || f > 0.62 {
		t.Errorf("banner obfuscation rate = %.2f, want ≈0.52", f)
	}
	if f := float64(indexed) / n; f > 0.08 {
		t.Errorf("FWB indexed rate = %.2f, want ≈0.041 x (1-noindex)", f)
	}
}

func TestDeriveBenignSiteMostlyCleanSignals(t *testing.T) {
	g, db, ct, rng := world(11)
	site := g.BenignFWBSite(g.PickServiceUniform(), epoch)
	tg := Derive(site, epoch, Twitter, "p", db, ct, rng)
	if tg.TwoStepLink || tg.DriveByDownload || tg.BannerObfuscated {
		t.Errorf("benign site carries attack signals: %+v", tg)
	}
	if tg.Kind != fwb.KindBenign {
		t.Errorf("kind = %v", tg.Kind)
	}
}

func TestDeriveNilInfra(t *testing.T) {
	g, _, _, _ := world(13)
	site := g.PhishingFWBSite(g.PickService(), epoch)
	// nil whois/ct/rng must not panic; signals degrade gracefully.
	tg := Derive(site, epoch, Twitter, "p", nil, nil, nil)
	if tg.DomainAge != 0 || tg.InCTLog || tg.SearchIndexed {
		t.Fatalf("nil-infra target has infra signals: %+v", tg)
	}
}

// TestDeriveFromSuppliedDoc: a target derived from the caller's parse of
// the page equals one derived from the HTML, for every page kind the
// generator serves — FWB phishing and its evasive variants, self-hosted
// hand-rolled and kit pages, benign sites, and both faces of a cloaked
// site — and for the cascade's lexical tier, which profiles a URL with
// no page at all.
func TestDeriveFromSuppliedDoc(t *testing.T) {
	g, db, ct, _ := world(9)
	host := fwb.NewHost(func() time.Time { return epoch })
	type page struct {
		name string
		site *fwb.Site
		html string
	}
	var pages []page
	add := func(name string, site *fwb.Site) {
		pages = append(pages, page{name, site, site.HTML})
	}
	weebly, _ := fwb.ByKey("weebly")
	gs, _ := fwb.ByKey("googlesites")
	for _, kind := range []fwb.SiteKind{fwb.KindPhishing, fwb.KindTwoStep, fwb.KindIFrameEmbed, fwb.KindDriveByDL} {
		add("fwb "+string(kind), g.PhishingFWBSiteOf(weebly, kind, epoch))
		add("path-based fwb "+string(kind), g.PhishingFWBSiteOf(gs, kind, epoch))
	}
	add("self-hosted", g.SelfHostedPhishing(epoch))
	kitSite, _ := g.SelfHostedKitPhishing(epoch)
	add("kit", kitSite)
	add("benign fwb", g.BenignFWBSite(weebly, epoch))
	add("benign self-hosted", g.BenignSelfHosted(epoch))
	cloaked := g.SelfHostedPhishing(epoch)
	cloaked.CloakUA = true
	if err := host.Publish(cloaked); err != nil {
		t.Fatal(err)
	}
	u, err := url.Parse(cloaked.URL)
	if err != nil {
		t.Fatal(err)
	}
	for _, ua := range []string{"curl/8.0", "Mozilla/5.0 Chrome/107.0"} {
		status, body := host.Serve(u.Host, u.Path, ua)
		if status != 200 {
			t.Fatalf("cloaked site answered %d", status)
		}
		pages = append(pages, page{"cloaked, served to " + ua, cloaked, body})
	}
	pages = append(pages, page{"lexical tier (no page)", cloaked, ""})

	for i, p := range pages {
		post := fmt.Sprintf("p%d", i)
		fromHTML := DeriveFromPage(p.site, p.html, nil, epoch, Twitter, post, db, ct, simclock.NewRNG(9, post))
		fromDoc := DeriveFromPage(p.site, p.html, htmlx.Parse(p.html), epoch, Twitter, post, db, ct, simclock.NewRNG(9, post))
		if !reflect.DeepEqual(fromHTML, fromDoc) {
			t.Errorf("%s: derived from the supplied parse\n%+v\nfrom the HTML\n%+v", p.name, fromDoc, fromHTML)
		}
	}
	// The supplied parse is what is analyzed: a Doc that is not the
	// parse of the HTML (a contract breach) shows through.
	phish := g.PhishingFWBSiteOf(weebly, fwb.KindPhishing, epoch)
	if tg := DeriveFromPage(phish, phish.HTML, htmlx.Parse("<p>nothing</p>"), epoch, Twitter, "px", db, ct, nil); tg.HasCredentialFields {
		t.Error("DeriveFromPage parsed the HTML although a Doc was supplied")
	}
}
