package fwb

import "testing"

// canonicalKeySeeds cover both paths of canonicalKey: plain URLs, URLs one
// byte away from plain (port, query, fragment, escape, user info, IPv6,
// space, control byte, upper-case scheme or host), and URLs net/url
// rejects.
var canonicalKeySeeds = []string{
	"https://shop-1.weebly.com/",
	"https://shop-1.weebly.com",
	"https://sites.google.com/view/paypal-login_2~x/",
	"http://Example.COM/Path/",
	"HTTPS://a.b/c//",
	"svn+ssh://h/p",
	"http:///only/path/",
	"http://",
	"https://a.b:8443/x",
	"https://a.b/x?y=1",
	"https://a.b/x#frag",
	"https://a.b/p%41th/",
	"https://user@a.b/",
	"https://[::1]/x",
	"https://a b/",
	"https://a.b/\x7f",
	"https://a_b.c/",
	"1http://a.b/",
	"://a.b/",
	"http:/a.b/",
	"a.b/c",
	"",
	"http://a.b/é/",
}

func checkCanonicalKey(t *testing.T, raw string) {
	t.Helper()
	key, err := canonicalKey(raw)
	wantKey, wantErr := urlKey(raw)
	if key != wantKey || (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
		t.Fatalf("canonicalKey(%q) = %q, %v; net/url gives %q, %v", raw, key, err, wantKey, wantErr)
	}
	if fast, ok := plainKey(raw); ok && (fast != wantKey || wantErr != nil) {
		t.Fatalf("plainKey(%q) = %q; net/url gives %q, %v", raw, fast, wantKey, wantErr)
	}
}

func TestCanonicalKeyMatchesURLParse(t *testing.T) {
	plain := 0
	for _, raw := range canonicalKeySeeds {
		checkCanonicalKey(t, raw)
		if _, ok := plainKey(raw); ok {
			plain++
		}
	}
	if plain < 6 {
		t.Fatalf("only %d seeds take the fast path", plain)
	}
	for _, c := range []struct{ raw, key string }{
		{"https://Shop-1.Weebly.com/Login/", "shop-1.weebly.com/Login"},
		{"https://shop-1.weebly.com/", "shop-1.weebly.com"},
	} {
		if key, ok := plainKey(c.raw); !ok || key != c.key {
			t.Errorf("plainKey(%q) = %q, %v; want %q", c.raw, key, ok, c.key)
		}
	}
}

func FuzzCanonicalKeyMatchesURLParse(f *testing.F) {
	for _, raw := range canonicalKeySeeds {
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		checkCanonicalKey(t, raw)
	})
}
