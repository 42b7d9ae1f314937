package ctlog

import (
	"math/rand"
	"strings"
	"testing"
	"time"
)

var now = time.Date(2022, 11, 1, 0, 0, 0, 0, time.UTC)

func TestCertificateFingerprintDeterministic(t *testing.T) {
	a := NewCertificate("*.weebly.com", "Weebly Inc", OV, now, 365*24*time.Hour)
	b := NewCertificate("*.weebly.com", "Weebly Inc", OV, now, 365*24*time.Hour)
	if a.Fingerprint != b.Fingerprint || a.Fingerprint == "" {
		t.Fatalf("fingerprints differ or empty: %q vs %q", a.Fingerprint, b.Fingerprint)
	}
	c := NewCertificate("*.wix.com", "Wix", OV, now, 365*24*time.Hour)
	if c.Fingerprint == a.Fingerprint {
		t.Fatal("distinct certs share a fingerprint")
	}
}

func TestCoversWildcard(t *testing.T) {
	cert := NewCertificate("*.weebly.com", "Weebly", OV, now, time.Hour)
	cases := []struct {
		host string
		want bool
	}{
		{"shop.weebly.com", true},
		{"SHOP.weebly.com", true},
		{"weebly.com", false},         // wildcard does not cover the apex
		{"a.b.weebly.com", false},     // single level only
		{"shop.wix.com", false},       // different domain
		{"evilweebly.com", false},     // suffix trick
		{"shop.notweebly.com", false}, // suffix trick with subdomain
	}
	for _, c := range cases {
		if got := cert.Covers(c.host); got != c.want {
			t.Errorf("Covers(%q) = %v, want %v", c.host, got, c.want)
		}
	}
}

func TestCoversExact(t *testing.T) {
	cert := NewCertificate("login.example.com", "Ex", DV, now, time.Hour)
	if !cert.Covers("login.example.com") {
		t.Fatal("exact host not covered")
	}
	if cert.Covers("other.example.com") {
		t.Fatal("non-matching host covered")
	}
}

func TestSharedFWBCertMatchesPaperExample(t *testing.T) {
	// Figure 3: a phishing site on Google Sites shares its certificate with
	// YouTube — one Google cert covering many properties. Model: one cert,
	// identical fingerprint for both hosts.
	cert := NewCertificate("*.google.com", "Google LLC", OV, now, 365*24*time.Hour)
	if !cert.Covers("sites.google.com") {
		t.Fatal("cert should cover sites.google.com")
	}
	// Same certificate object ⇒ same fingerprint, issue and expiry dates,
	// the exact invariant the paper screenshots.
}

func TestLogAppendAndSince(t *testing.T) {
	var l Log
	for i := 0; i < 5; i++ {
		cert := NewCertificate("phish"+string(rune('a'+i))+".xyz", "", DV, now, time.Hour)
		e := l.Append(cert, now.Add(time.Duration(i)*time.Minute))
		if e.Index != i {
			t.Fatalf("entry index = %d, want %d", e.Index, i)
		}
	}
	if l.Len() != 5 {
		t.Fatalf("Len = %d", l.Len())
	}
	tail := l.Since(3)
	if len(tail) != 2 || tail[0].Index != 3 {
		t.Fatalf("Since(3) = %+v", tail)
	}
	if got := l.Since(99); got != nil {
		t.Fatalf("Since beyond end = %v, want nil", got)
	}
	if got := l.Since(-4); len(got) != 5 {
		t.Fatalf("Since(-4) = %d entries, want all 5", len(got))
	}
}

func TestContainsHost(t *testing.T) {
	var l Log
	l.Append(NewCertificate("evil-login.xyz", "", DV, now, time.Hour), now)
	if !l.ContainsHost("evil-login.xyz") {
		t.Fatal("logged host not found")
	}
	// The FWB evasion property: a site on weebly.com was never individually
	// logged, so a CT-watching hunter cannot discover it.
	if l.ContainsHost("phish.weebly.com") {
		t.Fatal("unlogged FWB site should be invisible")
	}
}

// scanContainsHostSince is the linear scan the CommonName index replaced:
// Covers on every entry logged at or after since.
func scanContainsHostSince(l *Log, host string, since time.Time) bool {
	for _, e := range l.Since(0) {
		if !e.LoggedAt.Before(since) && e.Cert.Covers(host) {
			return true
		}
	}
	return false
}

func TestContainsHostSinceIndex(t *testing.T) {
	var l Log
	l.Append(NewCertificate("*.weebly.com", "Weebly", OV, now.AddDate(-3, 0, 0), time.Hour), now.AddDate(-3, 0, 0))
	l.Append(NewCertificate("evil-login.xyz", "", DV, now.Add(-time.Hour), time.Hour), now.Add(-time.Hour))
	l.Append(NewCertificate("*.pages.example.net", "", DV, now, time.Hour), now.Add(time.Hour))
	// A re-issued certificate: the later log time counts.
	l.Append(NewCertificate("evil-login.xyz", "", DV, now, time.Hour), now)
	// Built without NewCertificate, so its name keeps upper case: like
	// Covers, the index never matches it.
	l.Append(Certificate{CommonName: "Mixed.Example.com"}, now)
	l.Append(Certificate{CommonName: "*.Upper.com"}, now)
	cases := []struct {
		host  string
		since time.Time
		want  bool
	}{
		{"evil-login.xyz", now, true},
		{"EVIL-Login.XYZ", now, true},
		{"evil-login.xyz", now.Add(time.Nanosecond), false}, // since is inclusive
		{"evil-login.xyz", now.Add(-2 * time.Hour), true},
		{"shop.weebly.com", now.AddDate(-3, 0, 0), true},
		{"shop.weebly.com", now.AddDate(-3, 0, 0).Add(time.Second), false}, // old wildcard
		{"weebly.com", time.Time{}, false},                                 // apex
		{"a.b.weebly.com", time.Time{}, false},                             // one level only
		{".weebly.com", time.Time{}, false},                                // empty first label
		{"x.pages.example.net", now.Add(time.Hour), true},
		{"X.Pages.Example.NET", now, true},
		{"x.y.pages.example.net", now, false},
		{"pages.example.net", now, false},
		{"mixed.example.com", time.Time{}, false},
		{"Mixed.Example.com", time.Time{}, false},
		{"a.upper.com", time.Time{}, false},
		{"*.weebly.com", time.Time{}, true}, // the name itself, as Covers has it
		{"", time.Time{}, false},
	}
	for _, c := range cases {
		if got := l.ContainsHostSince(c.host, c.since); got != c.want {
			t.Errorf("ContainsHostSince(%q, %v) = %v, want %v", c.host, c.since, got, c.want)
		}
		if scan := scanContainsHostSince(&l, c.host, c.since); scan != c.want {
			t.Errorf("scan(%q, %v) = %v, want %v: the table disagrees with Covers", c.host, c.since, scan, c.want)
		}
	}
	var empty Log
	if empty.ContainsHostSince("evil-login.xyz", time.Time{}) {
		t.Error("an empty log covers a host")
	}
}

// TestContainsHostSinceMatchesScan: on random logs of exact and wildcard
// names in mixed case, over multi-level hosts and since instants on,
// before and after each log time, the index answers what the scan does.
func TestContainsHostSinceMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	labels := []string{"a", "B", "shop", "Login", "x", ""}
	domain := func(levels int) string {
		parts := make([]string, levels)
		for i := range parts {
			parts[i] = labels[rng.Intn(len(labels))]
		}
		return strings.Join(parts, ".")
	}
	covered := 0
	for trial := 0; trial < 200; trial++ {
		var l Log
		var names []string
		for i := 0; i < 1+rng.Intn(12); i++ {
			name := domain(1 + rng.Intn(3))
			if rng.Intn(2) == 0 {
				name = "*." + name
			}
			at := now.Add(time.Duration(rng.Intn(5)) * time.Hour)
			cert := NewCertificate(name, "", DV, at, time.Hour)
			if rng.Intn(4) == 0 {
				cert.CommonName = name // keep its case
			}
			l.Append(cert, at)
			names = append(names, name)
		}
		for q := 0; q < 50; q++ {
			host := domain(1 + rng.Intn(4))
			if rng.Intn(3) == 0 {
				// A subdomain or the name itself of a logged certificate.
				name := strings.TrimPrefix(names[rng.Intn(len(names))], "*.")
				if rng.Intn(2) == 0 {
					name = labels[rng.Intn(len(labels))] + "." + name
				}
				host = name
			}
			since := now.Add(time.Duration(rng.Intn(6))*time.Hour - time.Duration(rng.Intn(3)-1))
			if got, want := l.ContainsHostSince(host, since), scanContainsHostSince(&l, host, since); got != want {
				t.Fatalf("trial %d: ContainsHostSince(%q, %v) = %v, scan = %v (names %q)", trial, host, since, got, want, names)
			} else if want {
				covered++
			}
		}
	}
	if covered < 500 {
		t.Fatalf("only %d of 10000 queries were covered; the property barely tests matches", covered)
	}
}
