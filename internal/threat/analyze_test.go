package threat

import (
	"strings"
	"testing"

	"freephish/internal/htmlx"
	"freephish/internal/urlx"
	"freephish/internal/webgen"
)

// referenceAnalyzePage is the multi-walk analyzer analyzePage replaced: one
// FindAll pass per signal. The one-walk analyzer must set the same signals.
func referenceAnalyzePage(t *Target, doc *htmlx.Node) {
	for _, in := range doc.FindAll("input") {
		switch in.AttrOr("type", "text") {
		case "password", "email":
			t.HasCredentialFields = true
		}
	}
	for _, m := range doc.FindAll("meta") {
		if strings.EqualFold(m.AttrOr("name", ""), "robots") &&
			strings.Contains(strings.ToLower(m.AttrOr("content", "")), "noindex") {
			t.Noindex = true
		}
	}
	host := ""
	if u, err := urlx.Parse(t.URL); err == nil {
		host = u.Host
	}
	for _, f := range doc.FindAll("iframe") {
		if isExternal(f.AttrOr("src", ""), host) {
			t.HiddenIFrame = true
		}
	}
	for _, a := range doc.FindAll("a") {
		href := a.AttrOr("href", "")
		if _, dl := a.Attr("download"); dl || hasDangerousExt(href) {
			t.DriveByDownload = true
		}
		if a.Find("button") != nil && isExternal(href, host) {
			t.TwoStepLink = true
		}
	}
	for _, n := range doc.FindAllFunc(func(n *htmlx.Node) bool {
		style, ok := n.Attr("style")
		s := strings.ToLower(strings.ReplaceAll(style, " ", ""))
		return ok && (strings.Contains(s, "visibility:hidden") || strings.Contains(s, "display:none"))
	}) {
		idc := strings.ToLower(n.AttrOr("id", "") + " " + n.AttrOr("class", ""))
		for _, marker := range []string{"banner", "footer", "badge", "branding", "attribution"} {
			if strings.Contains(idc, marker) {
				t.BannerObfuscated = true
			}
		}
	}
}

// signals is the part of a Target analyzePage sets.
type signals struct {
	cred, noindex, banner, iframe, download, twoStep bool
}

func analyzed(analyze func(*Target, *htmlx.Node), url, html string) signals {
	t := &Target{URL: url}
	analyze(t, htmlx.Parse(html))
	return signals{t.HasCredentialFields, t.Noindex, t.BannerObfuscated, t.HiddenIFrame, t.DriveByDownload, t.TwoStepLink}
}

func TestAnalyzePageTable(t *testing.T) {
	const site = "https://shop-1.weebly.com/"
	cases := []struct {
		name, html string
		want       signals
	}{
		{"empty", ``, signals{}},
		{"password field", `<form><input type="password"></form>`, signals{cred: true}},
		{"email field", `<input type=email>`, signals{cred: true}},
		{"text field only", `<input name="q"><input type="Password">`, signals{}},
		{"robots noindex", `<meta name="ROBOTS" content="NoIndex, nofollow">`, signals{noindex: true}},
		{"other meta noindex", `<meta name="googlebot" content="noindex">`, signals{}},
		{"hidden banner", `<div id="site-Banner" style="display : none">x</div>`, signals{banner: true}},
		{"hidden non-banner", `<div class="popup" style="visibility:hidden">x</div>`, signals{}},
		{"visible banner", `<div class="footer">x</div>`, signals{}},
		{"external iframe", `<iframe src="https://evil.example.net/f"></iframe>`, signals{iframe: true}},
		{"same-host iframe", `<iframe src="https://shop-1.weebly.com/f"></iframe>`, signals{}},
		{"relative iframe", `<iframe src="/f"></iframe>`, signals{}},
		{"download attribute", `<a href="/doc" download>get</a>`, signals{download: true}},
		{"dangerous extension", `<a href="https://x.example.com/INVOICE.EXE">get</a>`, signals{download: true}},
		{"two-step button", `<a href="https://evil.example.net/login"><span><button>Go</button></span></a>`, signals{twoStep: true}},
		{"internal button link", `<a href="https://shop-1.weebly.com/next"><button>Go</button></a>`, signals{}},
		{"external link without button", `<a href="https://evil.example.net/login">Go</a><button>x</button>`, signals{}},
		{"everything", `<meta name=robots content=noindex><input type=password>` +
			`<div class="badge" style="visibility:hidden"></div><iframe src="http://a.example.org/"></iframe>` +
			`<a href="https://b.example.org/x.apk"><button>b</button></a>`,
			signals{true, true, true, true, true, true}},
	}
	for _, c := range cases {
		if got := analyzed(analyzePage, site, c.html); got != c.want {
			t.Errorf("%s: signals %+v, want %+v", c.name, got, c.want)
		}
		if ref := analyzed(referenceAnalyzePage, site, c.html); ref != c.want {
			t.Errorf("%s: reference signals %+v, want %+v", c.name, ref, c.want)
		}
	}
}

// TestAnalyzePageMatchesReference checks the one-walk analyzer against the
// reference on every generated page kind for seeds 1 and 7.
func TestAnalyzePageMatchesReference(t *testing.T) {
	seen := map[signals]bool{}
	for _, seed := range []int64{1, 7} {
		for _, site := range webgen.SamplePages(seed, epoch) {
			got := analyzed(analyzePage, site.URL, site.HTML)
			if want := analyzed(referenceAnalyzePage, site.URL, site.HTML); got != want {
				t.Fatalf("%s (%s): signals %+v, reference %+v", site.URL, site.Kind, got, want)
			}
			seen[got] = true
		}
	}
	if len(seen) < 4 {
		t.Fatalf("the sample pages reach only %d signal combinations", len(seen))
	}
}
