package webgen

import (
	"time"

	"freephish/internal/brands"
	"freephish/internal/ctlog"
	"freephish/internal/fwb"
)

// Phishing kits (§6, "Phishing Attack Costs"): much of the self-hosted
// phishing economy runs on off-the-shelf kits, so pages from the same kit
// share markup fingerprints across unrelated attacker domains — the signal
// kit-detection work (Bijmans et al., Oest et al.) clusters on. A fraction
// of generated self-hosted attacks are built from one of these kit
// templates; the rest stay hand-rolled.

// KitRate is the fraction of self-hosted phishing built from a kit.
const KitRate = 0.6

// kit is one off-the-shelf phishing kit's markup fingerprint.
type kit struct {
	Name  string
	class string   // CSS class prefix stamped on every element
	extra []string // fixed resource includes, a strong fingerprint
}

// kits is the simulated kit market; popularity is Zipf-skewed via drawKit.
var kits = []kit{
	{"xbalti", "xb", []string{`<link rel="stylesheet" href="assets/xb-style.css">`, `<script src="assets/xb-anti.js"></script>`}},
	{"16shop", "sx", []string{`<link rel="stylesheet" href="css/sx-main.css">`, `<script src="js/sx-detect.js"></script>`}},
	{"kr3pto", "kr", []string{`<link rel="stylesheet" href="static/kr-theme.css">`}},
	{"chalbhai", "cb", []string{`<link rel="stylesheet" href="cb/style.css">`, `<script src="cb/fingerprint.js"></script>`}},
	{"rainbow", "rb", []string{`<link rel="stylesheet" href="inc/rb.css">`}},
}

func (g *Generator) drawKit() kit {
	return kits[g.rng.Zipf(len(kits), 1.1)]
}

// kitOpen appends "<"+elem and the kit's attributes: vAttrs with the
// kit's class prefix, so same-kit pages share the fixed part and their
// signatures cluster.
func (m *markup) kitOpen(elem string, k kit, role string) {
	m.s("<", elem, ` class="`, k.class, "-", role, `" data-kid="`)
	m.token(10)
	m.s(`"`)
}

// kitPage renders a credential page from the kit template.
func (g *Generator) kitPage(k kit, br brands.Brand) string {
	m := g.newMarkup()
	defer m.free()
	m.s("<!DOCTYPE html>\n<html>\n<head>\n", `<meta charset="utf-8">`+"\n")
	m.s("<title>", br.Name, " - Account Verification</title>\n")
	for _, inc := range k.extra {
		m.s(inc, "\n")
	}
	m.s("</head>\n<body>\n")
	m.kitOpen("div", k, "wrapper")
	m.s(">\n")
	m.kitOpen("img", k, "logo")
	m.s(` src="images/`, br.Key, `_logo.png" alt="`, br.Name, `">`+"\n")
	vocab := br.LoginVocab[g.rng.Intn(len(br.LoginVocab))]
	m.kitOpen("h2", k, "title")
	m.s(">", vocab, "</h2>\n")
	m.kitOpen("form", k, "form")
	m.s(` method="post" action="next.php">` + "\n")
	m.kitOpen("input", k, "field")
	m.s(` type="email" name="email" placeholder="Email">` + "\n")
	m.kitOpen("input", k, "field")
	m.s(` type="password" name="password" placeholder="Password">` + "\n")
	m.kitOpen("button", k, "btn")
	m.s(` type="submit">Continue</button></form>` + "\n")
	m.kitOpen("div", k, "footer")
	m.s("><p>Protected by ", br.Name, " security.</p></div>\n")
	m.s("</div>\n</body>\n</html>\n")
	return string(m.b)
}

// SelfHostedKitPhishing generates a self-hosted phishing site built from a
// named kit. It returns the site and the kit's name (the ground-truth
// family label for clustering evaluations).
func (g *Generator) SelfHostedKitPhishing(at time.Time) (*fwb.Site, string) {
	k := g.drawKit()
	br := g.pickBrand()
	host := g.selfHostedHost(br)
	scheme := "http"
	hasTLS := g.rng.Bool(SelfHostedTLSRate)
	if hasTLS {
		scheme = "https"
	}
	url := scheme + "://" + host + "/" + g.selfHostedPath(br) + "/"
	if g.whois != nil {
		days := g.rng.ExpFloat64() * 58
		if days > 400 {
			days = 400
		}
		g.whois.Register(registrableOf(host), at.AddDate(0, 0, -int(days)-1), "NameCheap")
	}
	if g.ct != nil && hasTLS {
		cert := ctlog.NewCertificate(host, "", ctlog.DV, at.Add(-2*time.Hour), 90*24*time.Hour)
		g.ct.Append(cert, at.Add(-2*time.Hour))
	}
	return &fwb.Site{
		URL: url, Name: host, HTML: g.kitPage(k, br),
		Kind: fwb.KindSelfHostPhish, Brand: br.Key, Created: at,
		CloakUA: g.rng.Bool(SelfHostedCloakRate),
	}, k.Name
}

// SelfHostedAttack generates a self-hosted phishing site, drawn from the
// kit market with probability KitRate and hand-rolled otherwise. The
// second return value is the kit family name, or "hand-rolled".
func (g *Generator) SelfHostedAttack(at time.Time) (*fwb.Site, string) {
	if g.rng.Bool(KitRate) {
		return g.SelfHostedKitPhishing(at)
	}
	return g.SelfHostedPhishing(at), "hand-rolled"
}

// KitNames returns the simulated kit market's family names.
func KitNames() []string {
	out := make([]string, len(kits))
	for i, k := range kits {
		out[i] = k.Name
	}
	return out
}
