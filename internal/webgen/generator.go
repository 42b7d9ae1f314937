package webgen

import (
	"strconv"
	"strings"
	"sync"
	"time"

	"freephish/internal/brands"
	"freephish/internal/ctlog"
	"freephish/internal/fwb"
	"freephish/internal/simclock"
	"freephish/internal/whois"
)

// Rates measured by the paper that parameterize generation.
const (
	// NoindexRate is the fraction of FWB phishing pages carrying a noindex
	// meta tag (Section 3: 44.7%).
	NoindexRate = 0.447
	// BannerObfuscationRate is the fraction of FWB phishing pages that hide
	// the service banner (Section 4.2).
	BannerObfuscationRate = 0.52
	// BrandInSlugRate is the fraction of phishing slugs embedding the brand.
	BrandInSlugRate = 0.45
	// BenignContactFormRate is the fraction of benign sites with a simple
	// contact form (keeps "has a form" from trivially separating classes).
	BenignContactFormRate = 0.30
	// TwoStepOtherFWBRate is the fraction of two-step attacks whose linked
	// page is on another FWB (Section 5.5: 174 of 539 on Google Sites).
	TwoStepOtherFWBRate = 0.32
	// SelfHostedTLSRate is the fraction of self-hosted phishing sites with
	// SSL (Section 3 cites >49% of phishing URLs having certificates).
	SelfHostedTLSRate = 0.60
	// SelfHostedCloakRate is the fraction of self-hosted phishing sites
	// using server-side user-agent cloaking (CrawlPhish measured ~20-25%
	// of phishing sites employing cloaking; §6 related work).
	SelfHostedCloakRate = 0.25
)

// Generator produces simulated websites and the social posts that share
// them. It optionally maintains WHOIS and CT-log side effects so detector
// discovery channels observe the same world. Generator is not safe for
// concurrent use; the simulation drives it from clock callbacks.
type Generator struct {
	rng   *simclock.RNG
	seed  int64
	whois *whois.DB
	ct    *ctlog.Log
	seq   int
	// tag is a per-derivation name infix (see Derive). The root generator's
	// tag is empty, so untagged names keep their historical pure-decimal
	// sequence suffixes.
	tag string

	// OnSecondary, when set, receives the linked second-stage sites that
	// two-step and iframe attacks point to (Figure 11: the landing page on
	// one domain, the credential page on another). The caller typically
	// publishes them to the hosting substrate so crawlers can follow the
	// chain. When nil, second-stage URLs are fabricated but not backed by
	// a live page.
	OnSecondary func(*fwb.Site)
}

// NewGenerator returns a Generator drawing from the run seed. whoisDB and
// ctLog may be nil when registration side effects are not needed.
func NewGenerator(seed int64, whoisDB *whois.DB, ctLog *ctlog.Log) *Generator {
	return &Generator{
		rng:   simclock.NewRNG(seed, "webgen"),
		seed:  seed,
		whois: whoisDB,
		ct:    ctLog,
	}
}

// Derive returns a child generator drawing from its own keyed RNG stream
// ("webgen."+stream of the same run seed) against the same WHOIS and CT
// side-effect stores. tag is stamped into every generated name the child
// produces (see seqTag), which keeps names from different derivations —
// and from the root generator — structurally collision-free no matter how
// the derivations are interleaved. This is what lets a sharded posting
// schedule generate each event's site from a stream keyed by the event
// alone, independent of which shard runs it.
func (g *Generator) Derive(stream, tag string) *Generator {
	return &Generator{
		rng:         simclock.NewRNG(g.seed, "webgen."+stream),
		seed:        g.seed,
		whois:       g.whois,
		ct:          g.ct,
		tag:         tag,
		OnSecondary: g.OnSecondary,
	}
}

// seqTag returns the next per-generator name suffix: the derivation tag (a
// decimal terminated by a non-digit, e.g. "e17x") followed by the local
// sequence number. The root generator's empty tag reproduces the plain
// decimal suffixes names have always had; tagged suffixes contain a letter
// and so can never collide with them, and two derivations' suffixes differ
// in their tag before the first local digit.
func (g *Generator) seqTag() string {
	var buf [32]byte
	return string(g.appendSeqTag(buf[:0]))
}

// appendSeqTag appends the next name suffix (see seqTag) to dst.
func (g *Generator) appendSeqTag(dst []byte) []byte {
	g.seq++
	return strconv.AppendInt(append(dst, g.tag...), int64(g.seq), 10)
}

// RegisterInfrastructure records the 17 FWB hosting domains in WHOIS with
// their multi-year ages and appends each service's shared certificate to
// the CT log (the service's own cert is public; individual sites never are).
func (g *Generator) RegisterInfrastructure(at time.Time) {
	for _, svc := range fwb.All() {
		if g.whois != nil {
			reg := at.AddDate(0, 0, -int(svc.DomainAgeYears*365.25))
			g.whois.Register(registrableOf(svc.Domain), reg, "Corporate Registrar")
		}
		if g.ct != nil {
			cert := svc.SharedCertificate(at)
			g.ct.Append(cert, cert.Issued)
		}
	}
}

// registrableOf maps a hosting domain to its registrable parent:
// sites.google.com → google.com, docs.google.com → google.com.
func registrableOf(domain string) string {
	parts := strings.Split(domain, ".")
	if len(parts) <= 2 {
		return domain
	}
	return strings.Join(parts[len(parts)-2:], ".")
}

func (g *Generator) slug(words int) string {
	var buf [96]byte
	b := buf[:0]
	for i := 0; i < words; i++ {
		if i > 0 {
			b = append(b, '-')
		}
		b = append(b, slugWords[g.rng.Intn(len(slugWords))]...)
	}
	b = append(b, '-')
	return string(g.appendSeqTag(b))
}

// alnum is the alphabet of every generated token.
const alnum = "abcdefghijklmnopqrstuvwxyz0123456789"

// sidLen sizes the per-site random part of a template element's attributes
// so that fixed/(fixed+variable) ≈ richness, clamped to [4, 96] bytes.
func sidLen(fixed int, richness float64) int {
	fixedLen := float64(fixed)
	total := fixedLen / richness
	varLen := int(total - fixedLen)
	if varLen < 4 {
		varLen = 4
	}
	if varLen > 96 {
		varLen = 96
	}
	return varLen
}

// markup is a page, or a section of one, under construction. Fixed text
// and drawn tokens are appended straight into b in the order the draws are
// made, so building it formats nothing and, once its pooled buffer is warm,
// allocates nothing; only the finished page is copied out as a string.
type markup struct {
	g *Generator
	p *[]byte // b's pool slot
	b []byte
}

// markupPool recycles markup buffers across pages and generators.
var markupPool = sync.Pool{New: func() any { return new([]byte) }}

func (g *Generator) newMarkup() markup {
	p := markupPool.Get().(*[]byte)
	return markup{g: g, p: p, b: (*p)[:0]}
}

// free returns the buffer to the pool; m.b must not be used after.
func (m *markup) free() {
	*m.p = m.b[:0]
	markupPool.Put(m.p)
}

// s appends fixed text.
func (m *markup) s(parts ...string) {
	for _, p := range parts {
		m.b = append(m.b, p...)
	}
}

// token appends n random alphanumerics.
func (m *markup) token(n int) {
	m.b = m.g.rng.AppendToken(m.b, alnum, n)
}

// open appends the start of a content element, "<"+elem and its vAttrs,
// leaving the tag open for further attributes.
func (m *markup) open(elem string, svc *fwb.Service, role string) {
	m.s("<", elem)
	m.vAttrs(svc, role)
}

// vAttrs appends the attribute block for a content element. The fixed part
// (the service's template class) is identical across all sites on the FWB;
// the variable part is per-site random data sized so that
// fixed/(fixed+variable) ≈ richness. Because the Appendix A similarity is a
// median over per-tag best Levenshtein matches, this makes the measured
// phishing↔benign similarity track TemplateRichness — the mechanism behind
// Table 1's per-service medians. For self-hosted sites (svc == nil) both
// class and data are random, so cross-site similarity stays low.
func (m *markup) vAttrs(svc *fwb.Service, role string) {
	if svc == nil {
		m.s(` class="x`)
		m.token(7)
		m.s(`" data-sid="`)
		m.token(28)
		m.s(`"`)
		return
	}
	// The fixed part is ` class="<class>-<role>"`; 14 more bytes of element
	// name and data-sid scaffolding count as fixed too. Template classes and
	// roles are plain ASCII, so the quotes need no escaping.
	fixed := len(` class=""`) + len(svc.TemplateClass) + len("-") + len(role)
	m.s(` class="`, svc.TemplateClass, "-", role, `" data-sid="`)
	m.token(sidLen(fixed+14, svc.TemplateRichness))
	m.s(`"`)
}

// tagOpen appends a start tag with richness-controlled variance; the class
// is the concatenation of its parts.
func (m *markup) tagOpen(elem string, richness float64, class ...string) {
	fixed := len(`< class=""`) + len(elem)
	m.s("<", elem, ` class="`)
	for _, c := range class {
		fixed += len(c)
		m.s(c)
	}
	m.s(`" data-sid="`)
	m.token(sidLen(fixed+1, richness))
	m.s(`">`)
}

// pageOpts controls page assembly.
type pageOpts struct {
	title       string
	noindex     bool
	hideBanner  bool
	siteName    string
	body        []byte // pre-rendered content sections
	serviceLess bool   // self-hosted: no FWB chrome or banner
}

// buildPage assembles a full HTML document in the service's template. The
// chrome's start tags draw their tokens here, after the body's, though
// they precede the body in the page.
func (g *Generator) buildPage(svc *fwb.Service, o pageOpts) string {
	m := g.newMarkup()
	defer m.free()
	m.s("<!DOCTYPE html>\n<html>\n<head>\n", `<meta charset="utf-8">`+"\n", "<title>", o.title, "</title>\n")
	if o.noindex {
		m.s(`<meta name="robots" content="noindex, nofollow">` + "\n")
	}
	if !o.serviceLess {
		// Service boilerplate head: identical across all sites on the FWB.
		m.s(`<meta name="generator" content="`, svc.Name, ` Site Builder">`+"\n")
		m.s(`<link rel="stylesheet" href="https://cdn.`, svc.Domain, "/static/", svc.TemplateClass, `-theme.css">`+"\n")
		m.s(`<script src="https://cdn.`, svc.Domain, "/static/", svc.TemplateClass, `-runtime.js"></script>`+"\n")
	}
	m.s("</head>\n<body>\n")
	if !o.serviceLess {
		cls := svc.TemplateClass
		m.tagOpen("div", svc.TemplateRichness, cls, "-page-wrapper")
		m.s("\n")
		m.tagOpen("div", svc.TemplateRichness, cls, "-header-nav")
		m.s(`<span class="`, cls, `-site-title">`, o.title, "</span></div>\n")
	}
	m.b = append(m.b, o.body...)
	if !o.serviceLess {
		banner := svc.Banner(o.siteName)
		if i := strings.Index(banner, "<div "); o.hideBanner && i >= 0 {
			// The §4.2 obfuscation trick: hide the banner div via style.
			m.s(banner[:i], `<div style="visibility:hidden" `, banner[i+len("<div "):])
		} else {
			m.s(banner)
		}
		m.s("\n</div>\n")
	}
	m.s("</body>\n</html>\n")
	return string(m.b)
}

// contentSection renders one text section, the concatenation of text,
// inside service chrome.
func (m *markup) contentSection(svc *fwb.Service, text ...string) {
	m.open("div", svc, "section-content")
	m.s(">\n")
	m.open("p", svc, "paragraph")
	m.s(">")
	m.s(text...)
	m.s("</p></div>\n")
}

// navLinks renders the site's internal navigation anchors.
func (m *markup) navLinks(svc *fwb.Service, links []string) {
	m.open("div", svc, "nav-list")
	m.s(">")
	for _, l := range links {
		m.open("a", svc, "nav-link")
		m.s(` href="`, l, `">`, strings.TrimPrefix(l, "/"), "</a> ")
	}
	m.s("</div>\n")
}

// socialLinks renders the links to the site's social profiles, which the
// HTML features count as external.
func (m *markup) socialLinks(svc *fwb.Service, name string) {
	m.open("div", svc, "nav-list")
	m.s(">")
	for _, profile := range []string{"https://www.facebook.com/", "https://www.instagram.com/"} {
		m.open("a", svc, "ext-link")
		m.s(` href="`, profile, name, `">`, profile, name, "</a> ")
	}
	m.s("</div>\n")
}

// credentialForm renders a credential-harvesting form for the brand. extra
// lists additional sensitive fields (ssn, phone, card...), each a
// lower-case ASCII name.
func (m *markup) credentialForm(svc *fwb.Service, br brands.Brand, action string, extra []string) {
	m.open("div", svc, "form-container")
	m.s(">")
	vocab := br.LoginVocab[m.g.rng.Intn(len(br.LoginVocab))]
	m.open("img", svc, "brand-logo")
	m.s(` src="https://logo-cdn.example/`, br.Key, `.png" alt="`, br.Name, `">`)
	m.open("h2", svc, "form-title")
	m.s(">", vocab, "</h2>\n")
	m.open("form", svc, "form")
	m.s(` method="post" action="`, action, `">`+"\n")
	m.open("input", svc, "field")
	m.s(` type="email" name="email" placeholder="Email or phone">` + "\n")
	m.open("input", svc, "field")
	m.s(` type="password" name="password" placeholder="Password">` + "\n")
	for _, f := range extra {
		m.open("input", svc, "field")
		m.s(` type="text" name="`, f, `" placeholder="`)
		m.b = append(m.b, f[0]-'a'+'A')
		m.s(f[1:], `">`+"\n")
	}
	m.open("button", svc, "submit")
	m.s(` type="submit">Sign In</button></form></div>` + "\n")
}

// contactForm renders the benign contact form some legitimate sites carry.
func (m *markup) contactForm(svc *fwb.Service) {
	m.open("div", svc, "contact-form")
	m.s(">")
	m.open("form", svc, "form")
	m.s(` method="post" action="/contact">`)
	m.open("input", svc, "field")
	m.s(` type="text" name="name" placeholder="Your name">`)
	m.open("input", svc, "field")
	m.s(` type="email" name="email" placeholder="Your email">`)
	m.s(`<textarea name="message"></textarea>`)
	m.open("button", svc, "submit")
	m.s(` type="submit">Send</button></form></div>` + "\n")
}
