package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"freephish/internal/baselines"
	"freephish/internal/faults"
	"freephish/internal/features"
	"freephish/internal/fwb"
	"freephish/internal/proxy"
)

// TestInprocBackendBlocksAndPasses drives the daemon's wiring end to end
// on -backend inproc: every demo site the model flags is answered with
// the 403 interstitial, and every other one passes through with the
// simulated web's status and body. Under the default fault profile the
// fetcher's retries must absorb the injected faults, so the answers do
// not change.
func TestInprocBackendBlocksAndPasses(t *testing.T) {
	m := baselines.NewFreePhishModel(1)
	if err := m.Train(baselines.SyntheticPairs(1, 60, time.Date(2022, 11, 1, 0, 0, 0, 0, time.UTC))); err != nil {
		t.Fatal(err)
	}
	for _, spec := range []string{"off", "default"} {
		t.Run("faults="+spec, func(t *testing.T) {
			prof, err := faults.ParseProfile(spec)
			if err != nil {
				t.Fatal(err)
			}
			fetcher, transport, sites, err := newBackend("inproc", "", 1, prof)
			if err != nil {
				t.Fatal(err)
			}
			if len(sites) == 0 {
				t.Fatal("inproc backend published no sites")
			}
			var retried atomic.Int64
			fetcher.Observe = func(_, attempts int, _ time.Duration, _ error) {
				if attempts > 1 {
					retried.Add(1)
				}
			}
			// Back off for a millisecond instead of 250ms, keeping the
			// installed attempt count.
			fetcher.Retry.BaseDelay = time.Millisecond

			srv := httptest.NewServer(proxy.New(proxy.NewLiveChecker(m, fetcher.Snapshot), transport))
			defer srv.Close()
			proxyURL, _ := url.Parse(srv.URL)
			client := &http.Client{Transport: &http.Transport{Proxy: http.ProxyURL(proxyURL)}}
			defer client.CloseIdleConnections()

			var blockedPhish, passedBenign int
			for _, site := range sites {
				score, err := m.Score(features.Page{URL: site.URL, HTML: site.HTML})
				if err != nil {
					t.Fatal(err)
				}
				flagged := score >= 0.5
				// Plain http: the proxy inspects forwarded requests, while an
				// https URL would be a CONNECT tunnel it declines.
				target := "http://" + strings.TrimPrefix(site.URL, "https://")
				resp, err := client.Get(target)
				if err != nil {
					t.Fatalf("GET %s: %v", target, err)
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Fatal(err)
				}
				switch {
				case flagged:
					if resp.StatusCode != http.StatusForbidden || !strings.Contains(string(body), "FreePhish blocked this page") {
						t.Errorf("%s (%s, score %.2f): status %d, want the 403 interstitial", site.URL, site.Kind, score, resp.StatusCode)
					}
					if site.Kind.IsMalicious() {
						blockedPhish++
					}
				default:
					if resp.StatusCode != http.StatusOK || string(body) != site.HTML {
						t.Errorf("%s (%s, score %.2f): status %d with a %d-byte body, want 200 with the site's %d bytes",
							site.URL, site.Kind, score, resp.StatusCode, len(body), len(site.HTML))
					}
					if site.Kind == fwb.KindBenign {
						passedBenign++
					}
				}
			}
			t.Logf("%d sites: blocked %d phishing, passed %d benign, %d fetches retried", len(sites), blockedPhish, passedBenign, retried.Load())
			if blockedPhish == 0 || passedBenign == 0 {
				t.Fatalf("blocked %d phishing and passed %d benign sites; want at least one of each", blockedPhish, passedBenign)
			}
			if prof != nil && retried.Load() == 0 {
				t.Fatal("no fetch was retried: the fault profile never reached the inproc backend")
			}
		})
	}
}

// TestBackendRejectsBadFlags: -faults needs the simulated web, and an
// unknown backend is an error.
func TestBackendRejectsBadFlags(t *testing.T) {
	prof := faults.DefaultProfile()
	if _, _, _, err := newBackend("http", "", 1, &prof); err == nil {
		t.Fatal("-faults with -backend http accepted")
	}
	if _, _, _, err := newBackend("carrier-pigeon", "", 1, nil); err == nil {
		t.Fatal("unknown backend accepted")
	}
}

// TestHTTPBackendSharesOneFetcher: with -upstream set, the pass-through
// transport is the checker's own fetcher; without it, passed-through
// requests use the default transport.
func TestHTTPBackendSharesOneFetcher(t *testing.T) {
	fetcher, transport, sites, err := newBackend("http", "http://127.0.0.1:8800", 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ft, ok := transport.(fetchTransport); !ok || ft.f != fetcher {
		t.Fatalf("transport = %#v, want fetchTransport over the checker's fetcher", transport)
	}
	if sites != nil || fetcher.Base != "http://127.0.0.1:8800" {
		t.Fatalf("http backend: sites %d, base %q", len(sites), fetcher.Base)
	}
	if _, transport, _, _ := newBackend("http", "", 1, nil); transport != nil {
		t.Fatalf("no upstream: transport = %#v, want nil (http.DefaultTransport)", transport)
	}
}
