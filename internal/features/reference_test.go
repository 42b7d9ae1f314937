package features

import (
	"math"
	"strings"
	"testing"

	"freephish/internal/brands"
	"freephish/internal/htmlx"
	"freephish/internal/urlx"
	"freephish/internal/webgen"
)

// referenceExtract is the multi-walk extractor ExtractValues replaced: one
// FindAll or Find pass per HTML feature, written into a map. The one-walk
// extractor must reproduce it bit for bit.
func referenceExtract(p Page) (map[string]float64, error) {
	out := make(map[string]float64, 24)
	u, err := urlx.Parse(p.URL)
	if err != nil {
		return nil, err
	}
	keys := brands.Keys()

	out[FURLLength] = float64(len(p.URL))
	out[FSuspiciousSymbols] = float64(urlx.CountSuspiciousSymbols(p.URL))
	normalized := urlx.NormalizeForMatching(p.URL)
	out[FSensitiveWords] = float64(urlx.CountSensitiveWords(normalized))
	brand := u.BrandInHost(keys)
	if brand == "" {
		brand = u.BrandInPath(keys)
	}
	if brand == "" && normalized != strings.ToLower(p.URL) {
		if nu, err := urlx.Parse(normalized); err == nil {
			if brand = nu.BrandInHost(keys); brand == "" {
				brand = nu.BrandInPath(keys)
			}
		}
	}
	out[FBrandInURL] = b2f(brand != "")
	out[FPercentEncoded] = b2f(urlx.HasPercentEncodedLetters(p.URL))
	out[FPunycodeHost] = b2f(u.IsPunycodeHost())
	out[FHomoglyphs] = b2f(urlx.HasHomoglyphs(p.URL))
	out[FNumDots] = float64(u.CountDots())
	out[FNumDigits] = float64(urlx.CountDigits(p.URL))
	out[FIPHost] = b2f(u.LooksLikeIPHost())
	out[FCheapTLD] = b2f(u.IsCheapTLD())
	out[FHasHTTPS] = b2f(u.Scheme == "https")
	out[FMultipleTLDs] = b2f(multipleTLDs(u))

	doc := p.Doc
	if doc == nil {
		doc = htmlx.Parse(p.HTML)
	}
	var internal, external, empty int
	for _, a := range doc.FindAll("a") {
		href := a.AttrOr("href", "")
		switch {
		case href == "" || href == "#" || strings.HasPrefix(href, "javascript:"):
			empty++
		case strings.HasPrefix(href, "http://") || strings.HasPrefix(href, "https://"):
			if hp, err := urlx.Parse(href); err == nil && hp.Host == u.Host {
				internal++
			} else {
				external++
			}
		default:
			internal++
		}
	}
	out[FInternalLinks] = float64(internal)
	out[FExternalLinks] = float64(external)
	out[FEmptyLinks] = float64(empty)

	var pwFields, emailFields int
	for _, in := range doc.FindAll("input") {
		switch in.AttrOr("type", "text") {
		case "password":
			pwFields++
		case "email":
			emailFields++
		}
	}
	out[FPasswordFields] = float64(pwFields)
	out[FHasLoginForm] = b2f(pwFields > 0 || (emailFields > 0 && len(doc.FindAll("form")) > 0))

	out[FHTMLLength] = float64(len(p.HTML))
	out[FNumIFrames] = float64(len(doc.FindAll("iframe")))
	hidden := doc.FindAllFunc(func(n *htmlx.Node) bool { return referenceHiddenStyle(n) })
	out[FHiddenElements] = float64(len(hidden))
	out[FNumScripts] = float64(len(doc.FindAll("script")))
	out[FNumImages] = float64(len(doc.FindAll("img")))

	extAction := false
	for _, f := range doc.FindAll("form") {
		action := f.AttrOr("action", "")
		if strings.HasPrefix(action, "http://") || strings.HasPrefix(action, "https://") {
			if ap, err := urlx.Parse(action); err == nil && ap.Host != u.Host {
				extAction = true
			}
		}
	}
	out[FExternalAction] = b2f(extAction)

	title := ""
	if t := doc.Find("title"); t != nil {
		title = strings.ToLower(t.InnerText())
	}
	titleBrand := false
	for _, k := range keys {
		if strings.Contains(title, k) {
			titleBrand = true
			break
		}
	}
	out[FTitleBrand] = b2f(titleBrand)

	banner := false
	for _, n := range hidden {
		idc := strings.ToLower(n.AttrOr("id", "") + " " + n.AttrOr("class", ""))
		for _, marker := range []string{"banner", "footer", "badge", "branding", "attribution"} {
			if strings.Contains(idc, marker) {
				banner = true
			}
		}
	}
	out[FObfuscatedBanner] = b2f(banner)
	noindex := false
	for _, m := range doc.FindAll("meta") {
		if strings.EqualFold(m.AttrOr("name", ""), "robots") &&
			strings.Contains(strings.ToLower(m.AttrOr("content", "")), "noindex") {
			noindex = true
		}
	}
	out[FNoindex] = b2f(noindex)
	return out, nil
}

// referenceHiddenStyle is the allocating hidden-style test
// htmlx.Node.HasHiddenStyle scanned with before it learned to scan ASCII
// styles in place.
func referenceHiddenStyle(n *htmlx.Node) bool {
	style, ok := n.Attr("style")
	if !ok {
		return false
	}
	s := strings.ToLower(strings.ReplaceAll(style, " ", ""))
	return strings.Contains(s, "visibility:hidden") || strings.Contains(s, "display:none")
}

// allNames is every feature name Extract reports.
var allNames = append(append([]string(nil), ExtendedNames...), FHasHTTPS, FMultipleTLDs)

// htmlxParseSeeds are FuzzParse's seeds in internal/htmlx: the shapes that
// once broke, or nearly broke, the tokenizer or the tree builder.
var htmlxParseSeeds = []string{
	"",
	"<html><body><p>hi</p></body></html>",
	"<div class='a' style=\"display:none\"><img src=x>",
	"<script>if(a<b){x()}</script>",
	"<!-- comment --><!DOCTYPE html>",
	"<a href='x?a>b'>t</a></span></div>",
	"<<<>>><input type=password>",
	"\x00\xff<weird>",
	"<SCRIPT>x</SCRIPT><p>y",
	"<script>a</SCRIPT",
	"<script></scrip</script>",
	"<style>a</",
	"<title>\xff\xff</title><b>y</b>",
	"<textarea>İK</TEXTAREA>",
}

// hiddenStyleSeeds exercise the in-place hidden-style scan: spaces inside
// the keyword, mixed case, and non-ASCII case mappings (U+0130 lower-cases
// to 'i') that only the allocating path sees.
var hiddenStyleSeeds = []string{
	`<div id="site-banner" style="Display : None">x</div>`,
	`<div class="footer" style="visi bility:hid den;color:red">x</div>`,
	`<div class="badge" style="vİsibility:hidden">x</div>`,
	`<div style="display:\tnone">x</div><div style="DISPLAY:NONE ">y</div>`,
	`<span class="Branding" style="visibility: hidden">x</span>`,
	`<p style="display:nonE;display:block">x</p><p style="display:non">y</p>`,
}

// walkOrderSeeds depend on which element a walk meets first or on nesting
// the tokenizer allows: two titles (only the first counts), a title that
// stays open over markup after a near-miss close tag, links nested in
// links, and forms and inputs in either order.
var walkOrderSeeds = []string{
	`<title>Rosewood Bakery</title><title>PayPal Login</title>`,
	`<title>PayPal</title><body><title>bakery</title></body>`,
	`<title>Sign in</titlex><b>PayPal</b> now</title><title>x</title>`,
	`<a href="https://evil.example.net/"><a href="#">in</a><a href="/x">y</a></a>`,
	`<input type="email"><form action="https://collect.example.org/x"></form>`,
	`<form action="/ok"><input type="email"></form><form action="https://paypal-verify-3.weebly.com/x"></form>`,
	`<meta name="Robots" content="NOINDEX"><meta name="robots" content="index">`,
}

// referencePages is every corpus the one-walk extractor is checked on:
// the htmlx fuzz seeds, this package's test pages, the hidden-style and
// walk-order seeds and every generated page kind for seeds 1 and 7.
func referencePages(tb testing.TB) []Page {
	tb.Helper()
	var out []Page
	htmls := append(append(append([]string(nil), htmlxParseSeeds...), hiddenStyleSeeds...), walkOrderSeeds...)
	for _, html := range append(htmls, phishHTML, benignHTML) {
		for _, u := range []string{
			"https://paypal-verify-3.weebly.com/login",
			"https://rosewood-bakery.weebly.com/",
			"https://paypal.com.secure-login.xyz/x",
			"https://x.evil-site.xyz/p%61ypal/login",
			"https://pаypal-secure.example.xyz/login",
			"https://xn--pypal-4ve.com/login",
			"http://bad url with space",
		} {
			out = append(out, Page{URL: u, HTML: html})
		}
	}
	for _, seed := range []int64{1, 7} {
		for _, site := range webgen.SamplePages(seed, at) {
			out = append(out, Page{URL: site.URL, HTML: site.HTML})
		}
	}
	return out
}

// checkExtractMatchesReference fails t unless Extract and ExtractValues
// agree with referenceExtract on p, bit for bit, with and without a
// pre-parsed Doc.
func checkExtractMatchesReference(t *testing.T, p Page) {
	t.Helper()
	want, wantErr := referenceExtract(p)
	for _, withDoc := range []bool{false, true} {
		q := p
		if withDoc {
			q.Doc = htmlx.Parse(p.HTML)
		}
		got, err := Extract(q)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("Extract(%q) error = %v, reference %v", p.URL, err, wantErr)
		}
		if err != nil {
			continue
		}
		if len(got) != len(allNames) || len(want) != len(allNames) {
			t.Fatalf("Extract(%q): %d features, reference %d, want %d", p.URL, len(got), len(want), len(allNames))
		}
		for _, n := range allNames {
			if math.Float64bits(got[n]) != math.Float64bits(want[n]) {
				t.Fatalf("Extract(%q, doc=%v) %s = %v, reference %v\nhtml: %q", p.URL, withDoc, n, got[n], want[n], p.HTML)
			}
		}
	}
}

func TestExtractMatchesReference(t *testing.T) {
	pages := referencePages(t)
	if len(pages) < 200 {
		t.Fatalf("only %d reference pages", len(pages))
	}
	for _, p := range pages {
		checkExtractMatchesReference(t, p)
	}
}

func FuzzExtractMatchesReference(f *testing.F) {
	for _, p := range referencePages(f) {
		f.Add(p.URL, p.HTML)
	}
	f.Fuzz(func(t *testing.T, url, html string) {
		if len(url) > 1024 {
			url = url[:1024]
		}
		if len(html) > 1<<16 {
			html = html[:1<<16]
		}
		checkExtractMatchesReference(t, Page{URL: url, HTML: html})
	})
}

// mapVector is the map projection Values.Vector replaced: the value of
// each name, 0 for a name that is not in m.
func mapVector(names []string, m map[string]float64) []float64 {
	out := make([]float64, len(names))
	for i, n := range names {
		out[i] = m[n]
	}
	return out
}

// TestColumnsVectorMatchesMapVector checks the column projection against
// the map projection, for every feature view and for a name that is not a
// feature.
func TestColumnsVectorMatchesMapVector(t *testing.T) {
	views := [][]string{BaseStackNames, FreePhishNames, ExtendedNames, allNames, {FNoindex, "no_such_feature", FURLLength}}
	for _, p := range referencePages(t)[:40] {
		m, err := Extract(p)
		if err != nil {
			continue
		}
		v, err := ExtractValues(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, names := range views {
			want, got := mapVector(names, m), v.Vector(Columns(names))
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s: column vector %v, map vector %v", names[i], got[i], want[i])
				}
			}
		}
	}
	if c := Columns([]string{"no_such_feature"}); c[0] != -1 {
		t.Fatalf("unknown name column = %d, want -1", c[0])
	}
}
