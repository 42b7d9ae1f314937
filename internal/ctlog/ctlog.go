// Package ctlog models SSL certificates and the Certificate Transparency
// log network. Section 3 of the paper identifies CT-log invisibility as a
// core FWB evasion property: every site created on an FWB inherits the
// service's own (wildcard, EV/OV) certificate, so no new certificate is
// ever issued and the site never appears in CT logs — starving the
// CT-based discovery channel that several anti-phishing crawlers rely on.
// Self-hosted phishing sites, by contrast, obtain fresh DV certificates
// (Let's Encrypt / ZeroSSL) that do appear.
package ctlog

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"sync"
	"time"
)

// ValidationType is the certificate validation class.
type ValidationType string

// Validation classes, in increasing order of perceived trust.
const (
	DV ValidationType = "DV" // domain validation: free, instant, 90-day
	OV ValidationType = "OV" // organization validation
	EV ValidationType = "EV" // extended validation
)

// Certificate is a simplified X.509 certificate.
type Certificate struct {
	CommonName   string // e.g. *.weebly.com
	Organization string
	Type         ValidationType
	Issued       time.Time
	Expires      time.Time
	Fingerprint  string // SHA-256 over the identifying fields
}

// NewCertificate constructs a certificate with a deterministic fingerprint.
func NewCertificate(commonName, org string, typ ValidationType, issued time.Time, validity time.Duration) Certificate {
	c := Certificate{
		CommonName:   strings.ToLower(commonName),
		Organization: org,
		Type:         typ,
		Issued:       issued,
		Expires:      issued.Add(validity),
	}
	sum := sha256.Sum256([]byte(c.CommonName + "|" + c.Organization + "|" + string(c.Type) + "|" + issued.UTC().Format(time.RFC3339)))
	c.Fingerprint = hex.EncodeToString(sum[:])
	return c
}

// Covers reports whether the certificate is valid for host: exact match or
// a single-level wildcard (*.example.com covers a.example.com but not
// a.b.example.com), matching real TLS hostname verification.
func (c Certificate) Covers(host string) bool {
	host = strings.ToLower(host)
	if c.CommonName == host {
		return true
	}
	if rest, ok := strings.CutPrefix(c.CommonName, "*."); ok {
		if label, remainder, found := strings.Cut(host, "."); found && label != "" && remainder == rest {
			return true
		}
	}
	return false
}

// Entry is one CT-log entry: a newly issued certificate and its log time.
type Entry struct {
	Cert     Certificate
	LoggedAt time.Time
	Index    int
}

// Log is an append-only certificate transparency log. The zero value is
// ready to use. Log is safe for concurrent use.
type Log struct {
	mu      sync.RWMutex
	entries []Entry
	// latest indexes the entries by CommonName: the latest LoggedAt of
	// any certificate with that name.
	latest map[string]time.Time
}

// Append records a newly issued certificate. FWB-hosted sites never call
// this (they inherit the service certificate); self-hosted sites do.
func (l *Log) Append(cert Certificate, at time.Time) Entry {
	l.mu.Lock()
	defer l.mu.Unlock()
	e := Entry{Cert: cert, LoggedAt: at, Index: len(l.entries)}
	l.entries = append(l.entries, e)
	if l.latest == nil {
		l.latest = make(map[string]time.Time)
	}
	if prev, ok := l.latest[cert.CommonName]; !ok || at.After(prev) {
		l.latest[cert.CommonName] = at
	}
	return e
}

// Since returns entries with index >= fromIndex, the primitive CT-watching
// crawlers poll with.
func (l *Log) Since(fromIndex int) []Entry {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if fromIndex < 0 {
		fromIndex = 0
	}
	if fromIndex >= len(l.entries) {
		return nil
	}
	out := make([]Entry, len(l.entries)-fromIndex)
	copy(out, l.entries[fromIndex:])
	return out
}

// Len reports the number of log entries.
func (l *Log) Len() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return len(l.entries)
}

// ContainsHost reports whether any logged certificate covers host — the
// question a CT-based phishing hunter effectively asks.
func (l *Log) ContainsHost(host string) bool {
	return l.ContainsHostSince(host, time.Time{})
}

// ContainsHostSince reports whether a certificate covering host was LOGGED
// at or after since. This is the question a CT *watcher* asks: it streams
// new entries, so a years-old wildcard certificate (the FWB shared cert)
// never surfaces a newly created subdomain site — the Section 3
// CT-invisibility mechanism.
//
// The answer is the one a scan calling Covers on every entry gives, read
// from the CommonName index: host is covered by its own name and, when
// its first label is non-empty, by the wildcard over the rest.
func (l *Log) ContainsHostSince(host string, since time.Time) bool {
	host = strings.ToLower(host)
	l.mu.RLock()
	defer l.mu.RUnlock()
	if at, ok := l.latest[host]; ok && !at.Before(since) {
		return true
	}
	if label, rest, found := strings.Cut(host, "."); found && label != "" {
		if at, ok := l.latest["*."+rest]; ok && !at.Before(since) {
			return true
		}
	}
	return false
}
