// Package features implements the FreePhish pre-processing module's
// feature extraction (Section 4.2). The feature set builds on the Li et
// al. StackModel: 8 URL-based and 12 HTML-based features. Two StackModel
// features — "uses https" and "multiple TLDs in host" — do not discriminate
// on FWB sites (all FWB sites are https with a single TLD), so the
// augmented FreePhish set drops them and adds two FWB-specific features:
// an obfuscated service banner and a noindex meta tag.
package features

import (
	"strings"

	"freephish/internal/brands"
	"freephish/internal/htmlx"
	"freephish/internal/urlx"
)

// Page is the crawler snapshot a feature vector is extracted from. Doc,
// when non-nil, is the pre-parsed DOM of HTML — the study's fetch stage
// parses each fetched page once and sets it, so classification and the
// profile share that parse.
// The tree must correspond to HTML and is treated as read-only, so a
// shared Doc is safe under concurrent extraction.
type Page struct {
	URL  string
	HTML string
	Doc  *htmlx.Node
}

// Feature names, in canonical vector order.
const (
	// URL-based (StackModel).
	FURLLength         = "url_length"
	FSuspiciousSymbols = "suspicious_symbols"
	FSensitiveWords    = "sensitive_words"
	FBrandInURL        = "brand_in_url"
	FNumDots           = "num_dots"
	FNumDigits         = "num_digits"
	FIPHost            = "ip_host"
	FCheapTLD          = "cheap_tld"
	// URL-based (StackModel only; inapplicable to FWB sites).
	FHasHTTPS     = "has_https"
	FMultipleTLDs = "multiple_tlds"
	// HTML-based (StackModel).
	FInternalLinks  = "internal_links"
	FExternalLinks  = "external_links"
	FEmptyLinks     = "empty_links"
	FHasLoginForm   = "has_login_form"
	FPasswordFields = "password_fields"
	FHTMLLength     = "html_length"
	FNumIFrames     = "num_iframes"
	FHiddenElements = "hidden_elements"
	FNumScripts     = "num_scripts"
	FNumImages      = "num_images"
	FExternalAction = "external_form_action"
	FTitleBrand     = "title_brand_match"
	// FWB-specific (FreePhish additions, Section 4.2).
	FObfuscatedBanner = "obfuscated_banner"
	FNoindex          = "noindex"
	// URL-obfuscation extensions (beyond the paper's set): scanner-evasion
	// tricks — percent-encoded letters, punycode hosts, and unicode
	// homoglyphs — are phishing signals in their own right.
	FPercentEncoded = "percent_encoded_letters"
	FPunycodeHost   = "punycode_host"
	FHomoglyphs     = "homoglyph_chars"
)

// BaseStackNames is the 20-feature set of the original StackModel
// (8 URL + 12 HTML).
var BaseStackNames = []string{
	FURLLength, FSuspiciousSymbols, FSensitiveWords, FBrandInURL,
	FNumDots, FNumDigits, FHasHTTPS, FMultipleTLDs,
	FInternalLinks, FExternalLinks, FEmptyLinks, FHasLoginForm,
	FPasswordFields, FHTMLLength, FNumIFrames, FHiddenElements,
	FNumScripts, FNumImages, FExternalAction, FTitleBrand,
}

// FreePhishNames is the augmented 22-feature set: the StackModel set with
// has_https and multiple_tlds removed and ip_host, cheap_tld,
// obfuscated_banner, and noindex present.
var FreePhishNames = []string{
	FURLLength, FSuspiciousSymbols, FSensitiveWords, FBrandInURL,
	FNumDots, FNumDigits, FIPHost, FCheapTLD,
	FInternalLinks, FExternalLinks, FEmptyLinks, FHasLoginForm,
	FPasswordFields, FHTMLLength, FNumIFrames, FHiddenElements,
	FNumScripts, FNumImages, FExternalAction, FTitleBrand,
	FObfuscatedBanner, FNoindex,
}

// ExtendedNames adds the three URL-obfuscation features to the FreePhish
// set — the repository's extension beyond the paper's model.
var ExtendedNames = append(append([]string(nil), FreePhishNames...),
	FPercentEncoded, FPunycodeHost, FHomoglyphs)

// Feature IDs index a Values array. The order is internal; vectors are
// laid out by name through Columns.
const (
	idURLLength = iota
	idSuspiciousSymbols
	idSensitiveWords
	idBrandInURL
	idNumDots
	idNumDigits
	idIPHost
	idCheapTLD
	idHasHTTPS
	idMultipleTLDs
	idInternalLinks
	idExternalLinks
	idEmptyLinks
	idHasLoginForm
	idPasswordFields
	idHTMLLength
	idNumIFrames
	idHiddenElements
	idNumScripts
	idNumImages
	idExternalAction
	idTitleBrand
	idObfuscatedBanner
	idNoindex
	idPercentEncoded
	idPunycodeHost
	idHomoglyphs
	numFeatures
)

// names maps each feature ID to its name.
var names = [numFeatures]string{
	idURLLength: FURLLength, idSuspiciousSymbols: FSuspiciousSymbols,
	idSensitiveWords: FSensitiveWords, idBrandInURL: FBrandInURL,
	idNumDots: FNumDots, idNumDigits: FNumDigits, idIPHost: FIPHost,
	idCheapTLD: FCheapTLD, idHasHTTPS: FHasHTTPS, idMultipleTLDs: FMultipleTLDs,
	idInternalLinks: FInternalLinks, idExternalLinks: FExternalLinks,
	idEmptyLinks: FEmptyLinks, idHasLoginForm: FHasLoginForm,
	idPasswordFields: FPasswordFields, idHTMLLength: FHTMLLength,
	idNumIFrames: FNumIFrames, idHiddenElements: FHiddenElements,
	idNumScripts: FNumScripts, idNumImages: FNumImages,
	idExternalAction: FExternalAction, idTitleBrand: FTitleBrand,
	idObfuscatedBanner: FObfuscatedBanner, idNoindex: FNoindex,
	idPercentEncoded: FPercentEncoded, idPunycodeHost: FPunycodeHost,
	idHomoglyphs: FHomoglyphs,
}

// Values holds every feature of one page, indexed by feature ID.
type Values [numFeatures]float64

// Columns returns, for each name, the index Vector reads it from: -1 for
// a name that is not a feature, which Vector reads as 0 (as Extract's map
// reads a missing key). Compute it once per feature view.
func Columns(want []string) []int {
	out := make([]int, len(want))
	for i, n := range want {
		out[i] = -1
		for id, name := range names {
			if name == n {
				out[i] = id
				break
			}
		}
	}
	return out
}

// Vector projects v into the order of the columns from Columns.
func (v *Values) Vector(cols []int) []float64 {
	out := make([]float64, len(cols))
	for i, c := range cols {
		if c >= 0 {
			out[i] = v[c]
		}
	}
	return out
}

// Map returns v as a name→value map with every feature present.
func (v *Values) Map() map[string]float64 {
	out := make(map[string]float64, numFeatures)
	for id, x := range v {
		out[names[id]] = x
	}
	return out
}

// Extract computes every feature for the page, returning a name→value map.
// Model inputs come from ExtractValues instead, projected into a feature
// view's order (BaseStackNames / FreePhishNames) by Columns and Values.Vector.
func Extract(p Page) (map[string]float64, error) {
	v, err := ExtractValues(p)
	if err != nil {
		return nil, err
	}
	return v.Map(), nil
}

// ExtractValues computes every feature for the page. The URL features come
// from the page URL; the HTML features from one walk of the parsed page.
func ExtractValues(p Page) (Values, error) {
	var v Values
	u, err := urlx.Parse(p.URL)
	if err != nil {
		return v, err
	}
	keys := brands.Keys()

	// URL features.
	v[idURLLength] = float64(len(p.URL))
	v[idSuspiciousSymbols] = float64(urlx.CountSuspiciousSymbols(p.URL))
	// Vocabulary and brand scans run over the normalized URL (percent-
	// decoded, homoglyphs folded) so obfuscation does not hide keywords.
	normalized := urlx.NormalizeForMatching(p.URL)
	v[idSensitiveWords] = float64(urlx.CountSensitiveWords(normalized))
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
	v[idBrandInURL] = b2f(brand != "")
	v[idPercentEncoded] = b2f(urlx.HasPercentEncodedLetters(p.URL))
	v[idPunycodeHost] = b2f(u.IsPunycodeHost())
	v[idHomoglyphs] = b2f(urlx.HasHomoglyphs(p.URL))
	v[idNumDots] = float64(u.CountDots())
	v[idNumDigits] = float64(urlx.CountDigits(p.URL))
	v[idIPHost] = b2f(u.LooksLikeIPHost())
	v[idCheapTLD] = b2f(u.IsCheapTLD())
	v[idHasHTTPS] = b2f(u.Scheme == "https")
	v[idMultipleTLDs] = b2f(multipleTLDs(u))

	// HTML features.
	doc := p.Doc
	if doc == nil {
		doc = htmlx.Parse(p.HTML)
	}
	w := htmlWalk{host: u.Host}
	doc.Walk(w.visit)
	v[idInternalLinks] = float64(w.internal)
	v[idExternalLinks] = float64(w.external)
	v[idEmptyLinks] = float64(w.empty)
	v[idPasswordFields] = float64(w.pwFields)
	v[idHasLoginForm] = b2f(w.pwFields > 0 || (w.emailFields > 0 && w.forms > 0))
	v[idHTMLLength] = float64(len(p.HTML))
	v[idNumIFrames] = float64(w.iframes)
	v[idHiddenElements] = float64(w.hidden)
	v[idNumScripts] = float64(w.scripts)
	v[idNumImages] = float64(w.images)
	v[idExternalAction] = b2f(w.extAction)
	title := ""
	if w.title != nil {
		title = strings.ToLower(w.title.InnerText())
	}
	titleBrand := false
	for _, k := range keys {
		if strings.Contains(title, k) {
			titleBrand = true
			break
		}
	}
	v[idTitleBrand] = b2f(titleBrand)

	// FWB-specific features.
	v[idObfuscatedBanner] = b2f(w.banner)
	v[idNoindex] = b2f(w.noindex)
	return v, nil
}

// htmlWalk gathers every HTML feature in one walk of the tree.
type htmlWalk struct {
	host string // the page's own host, for internal/external links

	internal, external, empty int
	pwFields, emailFields     int
	forms, iframes            int
	scripts, images, hidden   int
	extAction                 bool
	title                     *htmlx.Node // the first <title>
	banner, noindex           bool
}

func (w *htmlWalk) visit(n *htmlx.Node) bool {
	if n.Type != htmlx.ElementNode {
		return true
	}
	switch n.Tag {
	case "a":
		href := n.AttrOr("href", "")
		switch {
		case href == "" || href == "#" || strings.HasPrefix(href, "javascript:"):
			w.empty++
		case isAbsoluteHTTP(href):
			if hp, err := urlx.Parse(href); err == nil && hp.Host == w.host {
				w.internal++
			} else {
				w.external++
			}
		default:
			w.internal++
		}
	case "input":
		switch n.AttrOr("type", "text") {
		case "password":
			w.pwFields++
		case "email":
			w.emailFields++
		}
	case "form":
		w.forms++
		if action := n.AttrOr("action", ""); isAbsoluteHTTP(action) {
			if ap, err := urlx.Parse(action); err == nil && ap.Host != w.host {
				w.extAction = true
			}
		}
	case "iframe":
		w.iframes++
	case "script":
		w.scripts++
	case "img":
		w.images++
	case "title":
		if w.title == nil {
			w.title = n
		}
	case "meta":
		w.noindex = w.noindex || RobotsNoindex(n)
	}
	if n.HasHiddenStyle() {
		w.hidden++
		w.banner = w.banner || BannerLike(n)
	}
	return true
}

func isAbsoluteHTTP(href string) bool {
	return strings.HasPrefix(href, "http://") || strings.HasPrefix(href, "https://")
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// multipleTLDs reports whether TLD-looking tokens appear in non-final host
// labels (the paypal.com.evil.xyz trick).
func multipleTLDs(u urlx.Parts) bool {
	tldish := map[string]bool{"com": true, "net": true, "org": true, "edu": true, "gov": true}
	for _, l := range u.Labels[:max(0, len(u.Labels)-1)] {
		if tldish[l] {
			return true
		}
	}
	return false
}

// BannerLike reports whether an element looks like a service banner: its
// id or class mentions "banner", "footer", "badge", "branding", or
// "attribution". Hidden, it is the §4.2 obfuscated-footer feature.
func BannerLike(n *htmlx.Node) bool {
	idc := strings.ToLower(n.AttrOr("id", "") + " " + n.AttrOr("class", ""))
	for _, marker := range []string{"banner", "footer", "badge", "branding", "attribution"} {
		if strings.Contains(idc, marker) {
			return true
		}
	}
	return false
}

// RobotsNoindex reports whether a <meta> element is a robots tag that
// requests no indexing.
func RobotsNoindex(m *htmlx.Node) bool {
	return strings.EqualFold(m.AttrOr("name", ""), "robots") &&
		strings.Contains(strings.ToLower(m.AttrOr("content", "")), "noindex")
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
