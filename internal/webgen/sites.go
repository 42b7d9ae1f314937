package webgen

import (
	"strings"
	"time"

	"freephish/internal/brands"
	"freephish/internal/ctlog"
	"freephish/internal/fwb"
)

// Generation rates that keep the benign and phishing cohorts genuinely
// overlapping — the reason no Table 2 model reaches 1.0. Real benign FWB
// sites have galleries, member-login areas, newsletter forms posting to
// external providers, and occasionally noindex drafts; real phishing pages
// camouflage themselves with benign content.
const (
	benignMemberLoginRate  = 0.08 // benign sites with an email+password member login
	benignNewsletterRate   = 0.12 // benign form posting to an external list provider
	benignNoindexRate      = 0.05 // unlisted drafts
	benignRandomNameRate   = 0.35 // benign sites with non-dictionary names
	benignEmbedRate        = 0.15 // benign sites embedding an external video iframe
	benignPopupRate        = 0.40 // benign sites with a hidden promo/modal div
	benignExtButtonRate    = 0.10 // benign external booking-widget button
	benignTitleBrandRate   = 0.03 // benign titles mentioning a brand ("Facebook tips")
	phishingCamouflageRate = 0.50 // phishing pages carrying benign nav + sections
	phishBrandTitleRate    = 0.60 // regular phishing titles naming the brand
	evasiveBrandTitleRate  = 0.20 // evasive variants rarely advertise the brand
	benignGalleryMaxImages = 5
	phishingExtraImagesMax = 2
)

// BenignFWBSite generates a legitimate website on the given service.
func (g *Generator) BenignFWBSite(svc *fwb.Service, at time.Time) *fwb.Site {
	topic := benignTopics[g.rng.Intn(len(benignTopics))]
	name := g.slug(2)
	if g.rng.Bool(benignRandomNameRate) {
		name = g.tokenName(7)
	}
	url := svc.SiteURL(name)

	body := g.newMarkup()
	defer body.free()
	body.navLinks(svc, topic.Links)
	nSections := 1 + g.rng.Intn(len(topic.Sections))
	for _, s := range topic.Sections[:nSections] {
		body.contentSection(svc, s)
	}
	if g.rng.Bool(0.8) {
		body.gallery(svc, 1+g.rng.Intn(benignGalleryMaxImages))
	}
	if g.rng.Bool(benignEmbedRate) {
		// Legitimate sites embed external media players all the time.
		body.s(`<iframe src="https://video-embeds.example.com/v/`)
		body.token(8)
		body.s(`" width="560" height="315" title="video"></iframe>` + "\n")
	}
	if g.rng.Bool(benignPopupRate) {
		// Hidden promo/modal divs are ubiquitous on legitimate sites; they
		// make a raw hidden-element count useless, unlike the targeted
		// obfuscated-banner feature. The doubled percent sign is part of
		// the pinned page bytes.
		body.s(`<div class="promo-modal" style="display:none"><p>Sign up for 10%% off your first order!</p></div>` + "\n")
	}
	if g.rng.Bool(benignExtButtonRate) {
		body.s(`<a href="https://booking-widget.example.net/`)
		body.token(6)
		body.s(`"><button>Book now</button></a>` + "\n")
	}
	// Benign sites frequently link out to social profiles.
	body.socialLinks(svc, name)
	if g.rng.Bool(BenignContactFormRate) {
		body.contactForm(svc)
	}
	if g.rng.Bool(benignMemberLoginRate) {
		body.memberLoginForm(svc)
	}
	if g.rng.Bool(benignNewsletterRate) {
		body.newsletterForm(svc)
	}
	title := topic.Title
	if g.rng.Bool(benignTitleBrandRate) {
		title = "Tips for growing your Facebook and Instagram audience"
	}
	html := g.buildPage(svc, pageOpts{
		title:    title,
		siteName: name,
		noindex:  g.rng.Bool(benignNoindexRate),
		body:     body.b,
	})
	return &fwb.Site{
		URL: url, Name: name, Service: svc, HTML: html,
		Kind: fwb.KindBenign, Created: at,
	}
}

// gallery renders an image block.
func (m *markup) gallery(svc *fwb.Service, n int) {
	m.open("div", svc, "gallery")
	m.s(">")
	for i := 0; i < n; i++ {
		m.open("img", svc, "photo")
		m.s(` src="https://images-cdn.example/`)
		m.token(8)
		m.s(`.jpg" alt="photo">`)
	}
	m.s("</div>\n")
}

// memberLoginForm is a legitimate members-area login: email + password,
// posting to the site itself. It is the main source of benign/phishing
// feature overlap for form-based detectors.
func (m *markup) memberLoginForm(svc *fwb.Service) {
	m.open("div", svc, "members-box")
	m.s(">")
	m.open("h2", svc, "members-title")
	m.s(`>Members area</h2>`)
	m.open("form", svc, "form")
	m.s(` method="post" action="/members/login">`)
	m.open("input", svc, "field")
	m.s(` type="email" name="email" placeholder="Email">`)
	m.open("input", svc, "field")
	m.s(` type="password" name="password" placeholder="Password">`)
	m.open("button", svc, "submit")
	m.s(` type="submit">Log in</button></form></div>` + "\n")
}

// newsletterForm posts the visitor's email to an external list provider —
// a benign page with an external form action.
func (m *markup) newsletterForm(svc *fwb.Service) {
	m.open("div", svc, "newsletter")
	m.s(">")
	m.open("form", svc, "form")
	m.s(` method="post" action="https://list-manage.example.com/subscribe">`)
	m.open("input", svc, "field")
	m.s(` type="email" name="email" placeholder="Join our newsletter">`)
	m.open("button", svc, "submit")
	m.s(` type="submit">Subscribe</button></form></div>` + "\n")
}

// PhishingFWBSite generates a phishing attack on the given service. The
// attack variant (regular credential phishing or one of the §5.5 evasive
// kinds) is drawn from the service's evasion profile; the spoofed brand is
// drawn from the Figure 5 skew.
func (g *Generator) PhishingFWBSite(svc *fwb.Service, at time.Time) *fwb.Site {
	kind := g.pickKind(svc)
	return g.PhishingFWBSiteOf(svc, kind, at)
}

func (g *Generator) pickKind(svc *fwb.Service) fwb.SiteKind {
	r := g.rng.Float64()
	e := svc.Evasion
	switch {
	case r < e.TwoStep:
		return fwb.KindTwoStep
	case r < e.TwoStep+e.IFrame:
		return fwb.KindIFrameEmbed
	case r < e.TwoStep+e.IFrame+e.DriveBy:
		return fwb.KindDriveByDL
	default:
		return fwb.KindPhishing
	}
}

// PhishingFWBSiteOf generates a phishing attack of a specific kind.
func (g *Generator) PhishingFWBSiteOf(svc *fwb.Service, kind fwb.SiteKind, at time.Time) *fwb.Site {
	br := g.pickBrand()
	name := g.phishSlug(br)
	url := svc.SiteURL(name)

	// The body's buffer is taken before any second-stage page is generated
	// below; that page takes its own.
	body := g.newMarkup()
	defer body.free()
	switch kind {
	case fwb.KindTwoStep:
		// Landing page with only a button; the real phishing page is on a
		// different domain (§5.5, Figure 11). No credential fields here.
		target := g.secondStageURL(br, at)
		body.contentSection(svc, "Your ", br.Name, " account requires verification. Click below to continue to the secure portal.")
		body.tagOpen("div", svc.TemplateRichness, svc.TemplateClass, "-button-wrap")
		body.s(`<a class="btn-continue" href="`, target, `"><button>Continue to `, br.Name, "</button></a></div>\n")
	case fwb.KindIFrameEmbed:
		// Benign-looking content plus a hidden iframe loading the attack
		// from an external domain (§5.5, Figure 12).
		topic := benignTopics[g.rng.Intn(len(benignTopics))]
		body.contentSection(svc, topic.Sections[0])
		target := g.secondStageURL(br, at)
		body.s(`<iframe src="`, target, `" width="100%" height="620" style="border:none" title="content"></iframe>`+"\n")
	case fwb.KindDriveByDL:
		// Malicious download lure hosted on a third-party site (§5.5). No
		// credential fields; an auto-triggering script starts the download.
		file := g.malwareFileURL(br)
		body.contentSection(svc, "A secure document from ", br.Name, " is ready. Your download will begin automatically.")
		body.s(`<a id="dl" href="`, file, `" download>Download document</a>`+"\n")
		body.s(`<script>window.onload=function(){document.getElementById("dl").click();}</script>` + "\n")
	default:
		// Regular credential phishing: spoofed login form posting to an
		// attacker-controlled collector (or the FWB's own form handler —
		// §3 notes FWBs store submitted credentials for the attacker).
		action := "/submit"
		if g.rng.Bool(0.4) {
			action = g.externalPhishURL(br) + "collect"
		}
		extra := g.extraFields()
		body.credentialForm(svc, br, action, extra)
		body.contentSection(svc, "For your security, please confirm your details. This page is protected with SSL encryption.")
	}
	// Camouflage: many attacks dress the page with benign template content
	// to blend in with legitimate sites on the same FWB.
	if g.rng.Bool(phishingCamouflageRate) {
		topic := benignTopics[g.rng.Intn(len(benignTopics))]
		body.navLinks(svc, topic.Links)
		body.contentSection(svc, topic.Sections[g.rng.Intn(len(topic.Sections))])
	}
	if n := g.rng.Intn(phishingExtraImagesMax + 1); n > 0 {
		body.gallery(svc, n)
	}

	brandTitleRate := phishBrandTitleRate
	if kind != fwb.KindPhishing {
		brandTitleRate = evasiveBrandTitleRate
	}
	title := titleFor(kind) + " - Secure Portal"
	if g.rng.Bool(brandTitleRate) {
		title = br.Name + " - " + titleFor(kind)
	}
	html := g.buildPage(svc, pageOpts{
		title:      title,
		siteName:   name,
		noindex:    g.rng.Bool(NoindexRate),
		hideBanner: g.rng.Bool(BannerObfuscationRate),
		body:       body.b,
	})
	return &fwb.Site{
		URL: url, Name: name, Service: svc, HTML: html,
		Kind: kind, Brand: br.Key, Created: at,
	}
}

func titleFor(kind fwb.SiteKind) string {
	switch kind {
	case fwb.KindDriveByDL:
		return "Document Shared"
	case fwb.KindTwoStep:
		return "Account Notice"
	case fwb.KindIFrameEmbed:
		return "Welcome"
	default:
		return "Sign In"
	}
}

func (g *Generator) pickBrand() brands.Brand {
	idx := g.rng.WeightedIndex(brands.Weights())
	return brands.All()[idx]
}

func (g *Generator) extraFields() []string {
	var out []string
	if g.rng.Bool(0.25) {
		out = append(out, "phone")
	}
	if g.rng.Bool(0.15) {
		out = append(out, "ssn")
	}
	if g.rng.Bool(0.20) {
		out = append(out, "cardnumber")
	}
	return out
}

// phishSlug builds the site name, embedding the brand in a majority of
// cases (the pattern the URL features detect).
func (g *Generator) phishSlug(br brands.Brand) string {
	if g.rng.Bool(BrandInSlugRate) {
		w := slugWords[g.rng.Intn(16)] // the "sensitive" half of the word list
		return br.Key + "-" + w + "-" + g.seqTag()
	}
	return g.tokenName(8)
}

// tokenName returns an n-character random name closed by the next name
// suffix (see seqTag).
func (g *Generator) tokenName(n int) string {
	var buf [64]byte
	return string(g.appendSeqTag(g.rng.AppendToken(buf[:0], alnum, n)))
}

// externalPhishURL fabricates the attacker-controlled page a two-step or
// iframe attack points to: usually a self-hosted cheap domain, sometimes
// another FWB (§5.5).
func (g *Generator) externalPhishURL(br brands.Brand) string {
	if g.rng.Bool(TwoStepOtherFWBRate) {
		all := fwb.All()
		svc := all[g.rng.Intn(len(all))]
		return svc.SiteURL(g.phishSlug(br))
	}
	var buf [96]byte
	b := append(append(append(buf[:0], "https://"...), br.Key...), '-')
	b = g.rng.AppendToken(b, alnum, 5)
	b = g.appendCheapTLDDomain(append(b, '.'))
	return string(append(b, "/login/"...))
}

// secondStageURL builds the linked second-stage attack page. When
// OnSecondary is set the page is actually generated and handed to the
// caller for hosting, so crawlers that follow the chain (PhishIntention's
// dynamic analysis) find a live credential page behind the button or
// iframe.
func (g *Generator) secondStageURL(br brands.Brand, at time.Time) string {
	if g.OnSecondary == nil {
		return g.externalPhishURL(br)
	}
	var site *fwb.Site
	if g.rng.Bool(TwoStepOtherFWBRate) {
		// §5.5: 174 of the 539 Google Sites two-step attacks linked to a
		// page on another FWB.
		all := fwb.All()
		svc := all[g.rng.Intn(len(all))]
		site = g.PhishingFWBSiteOf(svc, fwb.KindPhishing, at)
	} else {
		site = g.SelfHostedPhishing(at)
	}
	g.OnSecondary(site)
	return site.URL
}

// malwareFileURL fabricates the third-party-hosted malicious download.
func (g *Generator) malwareFileURL(br brands.Brand) string {
	exts := []string{"exe", "scr", "apk", "msi", "js"}
	var buf [96]byte
	b := g.rng.AppendToken(append(buf[:0], "https://files-"...), alnum, 6)
	b = g.appendCheapTLDDomain(append(b, '.'))
	b = append(append(append(b, '/'), br.Key...), "_secure_doc."...)
	return string(append(b, exts[g.rng.Intn(len(exts))]...))
}

var cheapSuffixes = []string{"xyz", "top", "live", "icu", "online", "site", "club", "buzz"}

// appendCheapTLDDomain appends a random domain on a cheap TLD.
func (g *Generator) appendCheapTLDDomain(dst []byte) []byte {
	dst = append(g.rng.AppendToken(dst, alnum, 7), '.')
	return append(dst, cheapSuffixes[g.rng.Intn(len(cheapSuffixes))]...)
}

// SelfHostedPhishing generates a phishing site on a freshly registered
// attacker domain: the baseline cohort of every Section 5 comparison. When
// the generator holds WHOIS/CT handles, the new domain is registered with a
// recent date and (for HTTPS sites) a DV certificate is appended to the CT
// log — the discovery channel FWB attacks starve.
func (g *Generator) SelfHostedPhishing(at time.Time) *fwb.Site {
	br := g.pickBrand()
	host := g.selfHostedHost(br)
	scheme := "http"
	hasTLS := g.rng.Bool(SelfHostedTLSRate)
	if hasTLS {
		scheme = "https"
	}
	url := scheme + "://" + host + "/" + g.selfHostedPath(br) + "/"

	if g.whois != nil {
		// Fresh registration: exponential age, median ≈ 40 days.
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

	body := g.newMarkup()
	defer body.free()
	body.credentialForm(nil, br, "/gate.php", g.extraFields())
	body.contentSection(nil, "Protected by advanced security. Do not share your password with anyone.")
	html := g.buildPage(nil, pageOpts{
		title:       br.Name + " - Sign In",
		noindex:     g.rng.Bool(0.25),
		body:        body.b,
		serviceLess: true,
	})
	return &fwb.Site{
		URL: url, Name: host, Service: nil, HTML: html,
		Kind: fwb.KindSelfHostPhish, Brand: br.Key, Created: at,
		CloakUA: g.rng.Bool(SelfHostedCloakRate),
	}
}

func (g *Generator) selfHostedHost(br brands.Brand) string {
	sub := ""
	if g.rng.Bool(0.45) {
		sub = []string{"secure.", "login.", "account.", "verify.", "www."}[g.rng.Intn(5)]
	}
	// TLD mix: mostly cheap TLDs, some .com (Section 6, Phishing Attack Costs).
	tld := cheapSuffixes[g.rng.Intn(len(cheapSuffixes))]
	if g.rng.Bool(0.25) {
		tld = "com"
	}
	base := br.Key + "-" + slugWords[g.rng.Intn(16)] + g.seqTag()
	if g.rng.Bool(0.3) {
		base = g.rng.Token(alnum, 9) + g.tag
	}
	return sub + base + "." + tld
}

func (g *Generator) selfHostedPath(br brands.Brand) string {
	paths := []string{"login", "verify", "secure", "account/update", "signin", "webscr"}
	p := paths[g.rng.Intn(len(paths))]
	if g.rng.Bool(0.5) {
		p = br.Key + "/" + p
	}
	return p
}

// IntlLureRate is the share of phishing posts written in a language other
// than English (the §3 coders' language blind spot).
const IntlLureRate = 0.06

// LureText renders a phishing social post sharing url.
func (g *Generator) LureText(url string) string {
	pool := lureTexts
	if g.rng.Bool(IntlLureRate) {
		pool = lureTextsIntl
	}
	t := pool[g.rng.Intn(len(pool))]
	return strings.ReplaceAll(t, "%URL%", url)
}

// BenignPostText renders an innocuous social post sharing url.
func (g *Generator) BenignPostText(url string) string {
	t := benignPostTexts[g.rng.Intn(len(benignPostTexts))]
	return strings.ReplaceAll(t, "%URL%", url)
}

// PickService draws an FWB service proportionally to its abuse weight —
// the Table 4 volume mix.
func (g *Generator) PickService() *fwb.Service {
	return fwb.All()[g.rng.WeightedIndex(abuseWeights)]
}

// abuseWeights holds each service's AbuseWeight, aligned with fwb.All.
var abuseWeights = func() []float64 {
	all := fwb.All()
	w := make([]float64, len(all))
	for i, s := range all {
		w[i] = s.AbuseWeight
	}
	return w
}()

// PickServiceUniform draws an FWB service uniformly — the benign-site mix.
func (g *Generator) PickServiceUniform() *fwb.Service {
	all := fwb.All()
	return all[g.rng.Intn(len(all))]
}

// BenignSelfHosted generates a legitimate small-business website on its own
// domain: years-old registration, hand-rolled markup, no FWB chrome. These
// are the benign half of the self-hosted world — without them the base
// StackModel would learn "own domain ⇒ phishing".
func (g *Generator) BenignSelfHosted(at time.Time) *fwb.Site {
	topic := benignTopics[g.rng.Intn(len(benignTopics))]
	base := strings.ToLower(strings.ReplaceAll(strings.Fields(topic.Title)[0], "'", ""))
	tlds := []string{"com", "com", "org", "net", "co.uk", "de"}
	host := base + g.seqTag() + "." + tlds[g.rng.Intn(len(tlds))]
	url := "https://www." + host + "/"

	if g.whois != nil {
		// Established businesses: domains registered one to twelve years ago.
		years := 1 + g.rng.Intn(12)
		g.whois.Register(host, at.AddDate(-years, 0, -g.rng.Intn(300)), "GoDaddy")
	}
	if g.ct != nil {
		// A legitimate cert renewed within the last month appears in CT —
		// benign CT presence keeps the channel from being a phishing oracle.
		cert := ctlog.NewCertificate("www."+host, "", ctlog.DV, at.AddDate(0, 0, -g.rng.Intn(30)-1), 90*24*time.Hour)
		g.ct.Append(cert, cert.Issued)
	}

	body := g.newMarkup()
	defer body.free()
	body.navLinks(nil, topic.Links)
	nSections := 1 + g.rng.Intn(len(topic.Sections))
	for _, s := range topic.Sections[:nSections] {
		body.contentSection(nil, s)
	}
	if g.rng.Bool(0.6) {
		body.gallery(nil, 1+g.rng.Intn(4))
	}
	if g.rng.Bool(BenignContactFormRate) {
		body.contactForm(nil)
	}
	if g.rng.Bool(benignMemberLoginRate) {
		body.memberLoginForm(nil)
	}
	html := g.buildPage(nil, pageOpts{
		title:       topic.Title,
		body:        body.b,
		serviceLess: true,
	})
	return &fwb.Site{
		URL: url, Name: host, HTML: html,
		Kind: fwb.KindBenign, Created: at,
	}
}

// The demo web's default size and phishing share: what cmd/fwbhost
// serves by default and freephish-proxy's inproc backend embeds.
const (
	DemoSites     = 40
	DemoPhishFrac = 0.4
)

// PublishDemoWeb publishes the demo population on host: sites FWB sites
// created at at, the first int(sites*phishFrac) of them phishing attacks
// and the rest benign. It returns the sites that published, in order, and
// the number of phishing sites generated.
func (g *Generator) PublishDemoWeb(host *fwb.Host, sites int, phishFrac float64, at time.Time) (published []*fwb.Site, nPhish int) {
	nPhish = int(float64(sites) * phishFrac)
	for i := 0; i < sites; i++ {
		var site *fwb.Site
		if i < nPhish {
			site = g.PhishingFWBSite(g.PickService(), at)
		} else {
			site = g.BenignFWBSite(g.PickServiceUniform(), at)
		}
		if host.Publish(site) == nil {
			published = append(published, site)
		}
	}
	return published, nPhish
}
