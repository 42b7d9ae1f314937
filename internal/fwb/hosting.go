package fwb

import (
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"
)

// SiteKind labels what a hosted site actually is. The generators set it;
// the measurement harness uses it as ground truth. The classifier never
// sees it.
type SiteKind string

// Ground-truth site kinds.
const (
	KindBenign        SiteKind = "benign"
	KindPhishing      SiteKind = "phishing"     // credential-harvesting page
	KindTwoStep       SiteKind = "two-step"     // landing page linking to external phishing (§5.5)
	KindIFrameEmbed   SiteKind = "iframe-embed" // hidden iframe loading an external attack (§5.5)
	KindDriveByDL     SiteKind = "drive-by"     // malicious download lure (§5.5)
	KindSelfHostPhish SiteKind = "self-hosted-phishing"
)

// IsMalicious reports whether the kind is any attack variant.
func (k SiteKind) IsMalicious() bool { return k != KindBenign }

// Site is one hosted website.
type Site struct {
	URL     string   // canonical full URL
	Name    string   // site name (subdomain or path slug)
	Service *Service // nil for self-hosted sites
	HTML    string
	Kind    SiteKind
	Brand   string // spoofed brand key, "" for benign
	Created time.Time
	// CloakUA enables server-side user-agent cloaking: requests whose
	// User-Agent looks like a crawler receive an innocuous decoy page
	// instead of the attack (Oest et al.'s cloaking, discussed in §6).
	// Only self-hosted sites can cloak — FWB tenants do not control the
	// server, one more way FWBs shape the attack landscape.
	CloakUA bool

	mu          sync.Mutex
	takenDown   bool
	takedownAt  time.Time
	removalWhom string
}

// TakeDown marks the site removed at t by the named actor. Only the first
// takedown is recorded.
func (s *Site) TakeDown(t time.Time, by string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.takenDown {
		return
	}
	s.takenDown = true
	s.takedownAt = t
	s.removalWhom = by
}

// TakenDown reports whether the site has been removed, and when/by whom.
func (s *Site) TakenDown() (bool, time.Time, string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.takenDown, s.takedownAt, s.removalWhom
}

// Active reports whether the site is still up at time t.
func (s *Site) Active(t time.Time) bool {
	down, at, _ := s.TakenDown()
	return !down || t.Before(at)
}

// Host is the hosting substrate: it stores every site in the simulated web
// (FWB-hosted and self-hosted) and serves them over HTTP. The zero value
// is not usable; construct with NewHost. Host is safe for concurrent use.
type Host struct {
	mu    sync.RWMutex
	sites map[string]*Site // key: canonical "host/path"
	now   func() time.Time
}

// NewHost returns a Host whose notion of "now" (for takedown checks during
// serving) comes from the given clock function.
func NewHost(now func() time.Time) *Host {
	return &Host{sites: make(map[string]*Site), now: now}
}

// canonicalKey maps a site URL to its sites key: the host lower-cased,
// then the path with one trailing slash trimmed. Plain URLs take
// plainKey's fast path; the rest go through net/url.
func canonicalKey(raw string) (string, error) {
	if key, ok := plainKey(raw); ok {
		return key, nil
	}
	return urlKey(raw)
}

// plainKey is canonicalKey read straight off a plain URL:
// scheme://host[/path], whose host holds only letters, digits, '.' and
// '-' and whose path only letters, digits, '.', '-', '_', '~' and '/'.
// net/url unescapes and rejects nothing in such a URL, so its host and
// path are substrings of raw. ok is false for any other URL.
func plainKey(raw string) (key string, ok bool) {
	i := 0
	for i < len(raw) && isSchemeByte(raw[i], i == 0) {
		i++
	}
	if i == 0 || !strings.HasPrefix(raw[i:], "://") {
		return "", false
	}
	hostStart := i + len("://")
	hostEnd, upper := hostStart, false
	for ; hostEnd < len(raw); hostEnd++ {
		c := raw[hostEnd]
		if 'A' <= c && c <= 'Z' {
			upper = true
		} else if !isHostByte(c) {
			break
		}
	}
	if hostEnd < len(raw) && raw[hostEnd] != '/' {
		return "", false
	}
	for j := hostEnd; j < len(raw); j++ {
		if c := raw[j]; !isHostByte(c) && !('A' <= c && c <= 'Z') && c != '_' && c != '~' && c != '/' {
			return "", false
		}
	}
	end := len(raw)
	if end > hostEnd && raw[end-1] == '/' {
		end--
	}
	if upper {
		return strings.ToLower(raw[hostStart:hostEnd]) + raw[hostEnd:end], true
	}
	return raw[hostStart:end], true
}

// isSchemeByte reports whether c may appear in a URL scheme at its
// position: a letter first, then letters, digits, '+', '-' and '.'.
func isSchemeByte(c byte, first bool) bool {
	switch {
	case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z':
		return true
	case '0' <= c && c <= '9', c == '+', c == '-', c == '.':
		return !first
	}
	return false
}

// isHostByte reports whether c is a lower-case letter, a digit, '.' or '-'.
func isHostByte(c byte) bool {
	return 'a' <= c && c <= 'z' || '0' <= c && c <= '9' || c == '.' || c == '-'
}

// urlKey is canonicalKey through net/url, for every URL plainKey declines.
func urlKey(raw string) (string, error) {
	u, err := url.Parse(raw)
	if err != nil {
		return "", err
	}
	host := strings.ToLower(u.Hostname())
	path := strings.TrimSuffix(u.Path, "/")
	return host + path, nil
}

// Publish registers a site under its URL. Publishing over an existing URL
// returns an error: FWB site names are unique per service.
func (h *Host) Publish(s *Site) error {
	key, err := canonicalKey(s.URL)
	if err != nil {
		return fmt.Errorf("fwb: bad site URL %q: %w", s.URL, err)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, exists := h.sites[key]; exists {
		return fmt.Errorf("fwb: site already exists at %q", s.URL)
	}
	h.sites[key] = s
	return nil
}

// Lookup finds the site serving raw, or nil.
func (h *Host) Lookup(raw string) *Site {
	key, err := canonicalKey(raw)
	if err != nil {
		return nil
	}
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.sites[key]
}

// Sites returns a snapshot of all hosted sites.
func (h *Host) Sites() []*Site {
	h.mu.RLock()
	defer h.mu.RUnlock()
	out := make([]*Site, 0, len(h.sites))
	for _, s := range h.sites {
		out = append(out, s)
	}
	return out
}

// Len reports the number of hosted sites.
func (h *Host) Len() int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return len(h.sites)
}

// Serve answers one GET of path on host as a browser presenting ua would
// see it: the status and the body. host may carry a port, which is
// ignored; host case and a trailing slash on path are too. An unknown
// site is a 404, a site taken down by now is a 410 (mirroring how FWBs
// replace removed sites), and a cloaking site serves its decoy to a
// bot-like ua. The body is never copied: a hosted site's is its stored
// HTML.
func (h *Host) Serve(host, path, ua string) (status int, body string) {
	if i := strings.IndexByte(host, ':'); i >= 0 {
		host = host[:i]
	}
	key := strings.ToLower(host) + strings.TrimSuffix(path, "/")
	h.mu.RLock()
	site := h.sites[key]
	h.mu.RUnlock()
	switch {
	case site == nil:
		return http.StatusNotFound, notFoundBody
	case !site.Active(h.now()):
		return http.StatusGone, removedPage
	case site.CloakUA && BotLikeUA(ua):
		return http.StatusOK, cloakDecoy
	}
	return http.StatusOK, site.HTML
}

// ServeHTTP serves hosted sites through Serve. The request host is taken
// from the Host header, so a single server can front every simulated
// domain, with the crawler setting the header.
func (h *Host) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	status, body := h.Serve(r.Host, r.URL.Path, r.UserAgent())
	if status == http.StatusNotFound {
		http.NotFound(w, r) // writes notFoundBody
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	w.WriteHeader(status)
	io.WriteString(w, body)
}

// notFoundBody is the body http.NotFound writes.
const notFoundBody = "404 page not found\n"

// removedPage replaces a site that was taken down.
const removedPage = "<html><body><h1>Site not available</h1><p>This site has been removed for violating our terms of service.</p></body></html>"

// cloakDecoy is the innocuous page cloaking sites serve to crawlers.
const cloakDecoy = `<!DOCTYPE html>
<html><head><title>Welcome</title></head>
<body><h1>Under construction</h1><p>Our new website is coming soon. Check back later!</p></body></html>`

// BotLikeUA reports whether a User-Agent string looks like an automated
// client rather than a real browser — the signal naive server-side
// cloaking keys on. An empty UA counts as a bot.
func BotLikeUA(ua string) bool {
	if ua == "" {
		return true
	}
	l := strings.ToLower(ua)
	for _, marker := range []string{"curl", "wget", "python", "bot", "crawler", "spider", "scrapy", "go-http-client", "httpclient"} {
		if strings.Contains(l, marker) {
			return true
		}
	}
	return false
}
