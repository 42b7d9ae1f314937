package social

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"freephish/internal/fwb"
	"freephish/internal/simclock"
	"freephish/internal/threat"
)

var epoch = time.Date(2022, 11, 1, 0, 0, 0, 0, time.UTC)

func TestPublishAndSince(t *testing.T) {
	now := epoch
	n := NewNetwork(threat.Twitter, func() time.Time { return now })
	for i := 0; i < 5; i++ {
		n.Publish(fmt.Sprintf("post %d", i), epoch.Add(time.Duration(i)*time.Hour))
	}
	got := n.Since(epoch.Add(2 * time.Hour))
	if len(got) != 3 {
		t.Fatalf("Since = %d posts, want 3", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i].At.Before(got[i-1].At) {
			t.Fatal("Since not chronological")
		}
	}
}

func TestRemovedPostsInvisible(t *testing.T) {
	now := epoch
	n := NewNetwork(threat.Facebook, func() time.Time { return now })
	p := n.Publish("bad link", epoch)
	p.Remove(epoch.Add(time.Hour))
	now = epoch.Add(2 * time.Hour)
	if got := n.Since(epoch); len(got) != 0 {
		t.Fatalf("removed post still visible: %v", got)
	}
	// Before removal time it was visible.
	if !p.VisibleAt(epoch.Add(30 * time.Minute)) {
		t.Fatal("post invisible before removal")
	}
	// Double remove keeps first timestamp.
	p.Remove(epoch.Add(5 * time.Hour))
	_, at := p.Removed()
	if !at.Equal(epoch.Add(time.Hour)) {
		t.Fatal("second Remove overwrote first")
	}
}

// TestPageBoundaries: Page caps a burst at MaxPageSize with more set,
// pages on by offset, and clamps an offset past the end to an empty last
// page.
func TestPageBoundaries(t *testing.T) {
	now := epoch.Add(time.Hour)
	n := NewNetwork(threat.Twitter, func() time.Time { return now })
	total := MaxPageSize + 7
	for i := 0; i < total; i++ {
		n.Publish(fmt.Sprintf("post %d", i), epoch.Add(time.Duration(i)*time.Second))
	}
	cases := []struct {
		offset, want int
		more         bool
	}{
		{0, MaxPageSize, true},
		{MaxPageSize, 7, false},
		{total, 0, false},
		{total + 50, 0, false},
	}
	for _, c := range cases {
		page, more := n.Page(epoch, c.offset)
		if len(page) != c.want || more != c.more {
			t.Errorf("Page(offset %d) = %d posts, more=%v; want %d, %v", c.offset, len(page), more, c.want, c.more)
		}
	}
	page, _ := n.Page(epoch, MaxPageSize)
	if page[0].Text != fmt.Sprintf("post %d", MaxPageSize) {
		t.Errorf("second page starts at %q", page[0].Text)
	}
}

func TestHTTPAPI(t *testing.T) {
	now := epoch
	n := NewNetwork(threat.Twitter, func() time.Time { return now })
	p1 := n.Publish("hello https://a.weebly.com/", epoch)
	srv := httptest.NewServer(n)
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/posts?since=" + epoch.Format(time.RFC3339))
	if err != nil {
		t.Fatal(err)
	}
	var posts []Post
	if err := json.NewDecoder(resp.Body).Decode(&posts); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(posts) != 1 || posts[0].ID != p1.ID {
		t.Fatalf("posts = %+v", posts)
	}

	resp, err = http.Get(srv.URL + "/posts/" + p1.ID)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("lookup status = %d", resp.StatusCode)
	}
	p1.Remove(epoch.Add(time.Minute))
	now = epoch.Add(time.Hour)
	resp, err = http.Get(srv.URL + "/posts/" + p1.ID)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Fatalf("removed post lookup = %d, want 404", resp.StatusCode)
	}
	// Bad since parameter.
	resp, err = http.Get(srv.URL + "/posts?since=not-a-time")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("bad since = %d, want 400", resp.StatusCode)
	}
}

func TestHTTPRemoveAndStatus(t *testing.T) {
	now := epoch
	n := NewNetwork(threat.Twitter, func() time.Time { return now })
	p := n.Publish("hello https://a.weebly.com/", epoch)
	srv := httptest.NewServer(n)
	defer srv.Close()

	status := func(id string) StatusResponse {
		t.Helper()
		resp, err := http.Get(srv.URL + "/posts/" + id + "/status")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("status endpoint = %d, want 200 always", resp.StatusCode)
		}
		var sr StatusResponse
		if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
			t.Fatal(err)
		}
		return sr
	}

	if sr := status(p.ID); !sr.Exists || sr.Removed {
		t.Fatalf("live post status = %+v", sr)
	}
	// Status, unlike the public lookup, still sees a removed post — it is
	// the moderation-side view, not the user-facing one.
	at := epoch.Add(45 * time.Minute)
	body := strings.NewReader(fmt.Sprintf(`{"at":%q}`, at.Format(time.RFC3339Nano)))
	resp, err := http.Post(srv.URL+"/posts/"+p.ID+"/remove", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("remove = %d, want 204", resp.StatusCode)
	}
	if sr := status(p.ID); !sr.Exists || !sr.Removed || !sr.RemovedAt.Equal(at) {
		t.Fatalf("removed post status = %+v, want removed at %v", sr, at)
	}
	if sr := status("twitter-999"); sr.Exists {
		t.Fatalf("unknown post status = %+v", sr)
	}
	// Removing an unknown post is a 404.
	resp, err = http.Post(srv.URL+"/posts/twitter-999/remove", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("remove unknown = %d, want 404", resp.StatusCode)
	}
	// An empty body defaults the removal time to the network clock.
	p2 := n.Publish("bye https://b.weebly.com/", epoch)
	now = epoch.Add(3 * time.Hour)
	resp, err = http.Post(srv.URL+"/posts/"+p2.ID+"/remove", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if sr := status(p2.ID); !sr.Removed || !sr.RemovedAt.Equal(now) {
		t.Fatalf("default-time removal status = %+v, want removed at %v", sr, now)
	}
}

func makeTarget(isFWB bool, evasive bool) *threat.Target {
	tg := &threat.Target{SharedAt: epoch, HasCredentialFields: !evasive, TwoStepLink: evasive}
	if isFWB {
		svc, _ := fwb.ByKey("weebly")
		tg.Service = svc
	}
	return tg
}

func TestModerationCalibration(t *testing.T) {
	rng := simclock.NewRNG(3, "mod")
	mods := StandardModeration()
	week := 7 * 24 * time.Hour
	measure := func(m *Moderation, isFWB bool) (float64, time.Duration) {
		const n = 3000
		var delays []time.Duration
		for i := 0; i < n; i++ {
			removed, at := m.Assess(makeTarget(isFWB, false), rng)
			if removed && at.Sub(epoch) <= week {
				delays = append(delays, at.Sub(epoch))
			}
		}
		sort.Slice(delays, func(i, j int) bool { return delays[i] < delays[j] })
		var med time.Duration
		if len(delays) > 0 {
			med = delays[len(delays)/2]
		}
		return float64(len(delays)) / n, med
	}
	tw := mods[threat.Twitter]
	fb := mods[threat.Facebook]
	twSelf, twSelfMed := measure(tw, false)
	twFWB, _ := measure(tw, true)
	fbSelf, _ := measure(fb, false)
	fbFWB, _ := measure(fb, true)

	if twFWB >= twSelf || fbFWB >= fbSelf {
		t.Fatalf("FWB removal must lag self-hosted: tw %.2f/%.2f fb %.2f/%.2f", twFWB, twSelf, fbFWB, fbSelf)
	}
	// §5.4: Twitter removes >70% of self-hosted within 16h; combined FWB
	// coverage ≈ 23%.
	if twSelf < 0.65 {
		t.Errorf("twitter self coverage = %.2f, want >= 0.65", twSelf)
	}
	combinedFWB := 0.63*twFWB + 0.37*fbFWB
	if combinedFWB < 0.15 || combinedFWB > 0.31 {
		t.Errorf("combined FWB coverage = %.2f, want ≈0.23", combinedFWB)
	}
	if twSelfMed > 6*time.Hour {
		t.Errorf("twitter self median = %v, want hours not days", twSelfMed)
	}
}

func TestModerationEvasivePenalty(t *testing.T) {
	rng := simclock.NewRNG(5, "ev")
	m := StandardModeration()[threat.Twitter]
	const n = 4000
	var evasive, regular int
	for i := 0; i < n; i++ {
		if ok, _ := m.Assess(makeTarget(true, true), rng); ok {
			evasive++
		}
		if ok, _ := m.Assess(makeTarget(true, false), rng); ok {
			regular++
		}
	}
	if evasive >= regular {
		t.Fatalf("evasive removals %d >= regular %d", evasive, regular)
	}
}

func TestNetworkAccessors(t *testing.T) {
	n := NewNetwork(threat.Twitter, func() time.Time { return epoch })
	if n.Platform() != threat.Twitter {
		t.Fatal("platform accessor")
	}
	if n.Len() != 0 {
		t.Fatal("fresh network not empty")
	}
	n.Publish("x", epoch)
	if n.Len() != 1 {
		t.Fatal("Len after publish")
	}
	if n.Lookup("no-such-id") != nil {
		t.Fatal("unknown post resolved")
	}
}

func TestLinkShimRedirectsCleanLinks(t *testing.T) {
	shim := NewLinkShim("Twitter", func(url string) bool { return false })
	path := shim.Wrap("https://rose-bakery.weebly.com/")
	srv := httptest.NewServer(shim)
	defer srv.Close()

	client := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}}
	resp, err := client.Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusFound {
		t.Fatalf("clean link status = %d, want 302", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); loc != "https://rose-bakery.weebly.com/" {
		t.Fatalf("redirect target = %q", loc)
	}
}

func TestLinkShimWarnsOnFlaggedLinks(t *testing.T) {
	flagged := map[string]bool{"https://evil.weebly.com/": true}
	shim := NewLinkShim("Twitter", func(url string) bool { return flagged[url] })
	path := shim.Wrap("https://evil.weebly.com/")
	srv := httptest.NewServer(shim)
	defer srv.Close()

	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.Contains(string(body), "potentially spammy or unsafe") {
		t.Fatalf("warning page missing: %d %q", resp.StatusCode, body)
	}
	// Clicking through bypasses the warning (Figure 10's "continue").
	client := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}}
	resp, err = client.Get(srv.URL + path + "?continue=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusFound {
		t.Fatalf("continue status = %d, want 302", resp.StatusCode)
	}
	warned, passed := shim.Counts()
	if warned != 1 || passed != 1 {
		t.Fatalf("counts = %d/%d", warned, passed)
	}
}

func TestLinkShimWarningsDiscontinued(t *testing.T) {
	// §5.4 notes Twitter's warning mechanism was discontinued after the
	// "X" rebrand: with warnings off the shim redirects even flagged URLs.
	shim := NewLinkShim("X", func(url string) bool { return true })
	shim.WarningsEnabled = false
	path := shim.Wrap("https://evil.weebly.com/")
	srv := httptest.NewServer(shim)
	defer srv.Close()
	client := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}}
	resp, err := client.Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusFound {
		t.Fatalf("status = %d, want 302 with warnings off", resp.StatusCode)
	}
}

func TestLinkShimUnknownID(t *testing.T) {
	shim := NewLinkShim("Twitter", nil)
	srv := httptest.NewServer(shim)
	defer srv.Close()
	for _, p := range []string{"/l/999", "/l/", "/other"} {
		resp, err := http.Get(srv.URL + p)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s = %d, want 404", p, resp.StatusCode)
		}
	}
}
