package core

import (
	"errors"
	"slices"
	"sync"
	"testing"
	"time"
	"unsafe"

	"freephish/internal/analysis"
	"freephish/internal/crawler"
	"freephish/internal/features"
	"freephish/internal/htmlx"
	"freephish/internal/threat"
	"freephish/internal/world"
)

// portLog records what a run's Snapshotter and SiteIntel ports carried:
// every snapshot per URL in call order (the fetch stage's probe first,
// then the §4.4 monitor's re-probes) and every profile request.
type portLog struct {
	mu       sync.Mutex
	snaps    map[string][]snapshot
	profiles map[string]world.ProfileRequest
}

type snapshot struct {
	page   features.Page
	status int
}

func newPortLog() *portLog {
	return &portLog{
		snaps:    map[string][]snapshot{},
		profiles: map[string]world.ProfileRequest{},
	}
}

// wrap is a wrapWorld seam that logs the Snap and Intel ports.
func (l *portLog) wrap(w world.World) world.World {
	w.Snap = loggedSnap{inner: w.Snap, log: l}
	w.Intel = loggedIntel{SiteIntel: w.Intel, log: l}
	return w
}

type loggedSnap struct {
	inner world.Snapshotter
	log   *portLog
}

func (s loggedSnap) Snapshot(url string) (features.Page, int, error) {
	page, status, err := s.inner.Snapshot(url)
	if err == nil {
		s.log.mu.Lock()
		s.log.snaps[url] = append(s.log.snaps[url], snapshot{page, status})
		s.log.mu.Unlock()
	}
	return page, status, err
}

type loggedIntel struct {
	world.SiteIntel
	log *portLog
}

func (x loggedIntel) Profile(req world.ProfileRequest) (*threat.Target, error) {
	x.log.mu.Lock()
	x.log.profiles[req.URL] = req
	x.log.mu.Unlock()
	return x.SiteIntel.Profile(req)
}

// replaySnap serves each URL's logged fetch-stage snapshot again.
type replaySnap struct{ log *portLog }

func (s replaySnap) Snapshot(url string) (features.Page, int, error) {
	first := s.log.snaps[url][0]
	return first.page, first.status, nil
}

// replayIntel attributes every URL to an FWB service, so classify scores
// it, and ends admission at the profile, keeping the Doc it was given.
type replayIntel struct {
	world.SiteIntel
	doc **htmlx.Node
}

var errReplayDone = errors.New("replay: profile reached")

func (replayIntel) Resolve(string) (world.SiteInfo, error) {
	return world.SiteInfo{Hosted: true, IsFWB: true, ServiceKey: "weebly"}, nil
}

func (x replayIntel) Profile(req world.ProfileRequest) (*threat.Target, error) {
	*x.doc = req.Doc
	return nil, errReplayDone
}

// TestFetchStageParsesOnce pins where a page is parsed: the fetch stage
// parses each 200 body once, classify and the profile read that one Doc,
// and the snapshot port — the §4.4 monitor's re-probes included — never
// parses. It reads the monitor-on studies TestCrossBackendEquivalence
// runs, on both backends.
func TestFetchStageParsesOnce(t *testing.T) {
	for _, backend := range []string{BackendInproc, BackendHTTP} {
		r := equivalenceRun(t, backend)
		ports := r.ports

		reprobes := 0
		for url, snaps := range ports.snaps {
			for i, snap := range snaps {
				if snap.page.Doc != nil {
					t.Fatalf("%s: snapshot %d of %s carries a parsed Doc; the snapshot port must not parse", backend, i, url)
				}
			}
			reprobes += len(snaps) - 1
		}
		if reprobes == 0 {
			t.Fatalf("%s: the monitor re-probed no URL; the test is vacuous", backend)
		}

		// Every full-tier record was profiled from the fetch stage's page:
		// the very HTML the snapshot port returned, and one parse of it
		// that no other URL shares and that gave the record its signature
		// and its score.
		docs := map[*htmlx.Node]string{}
		full := 0
		for _, rec := range r.study.Records {
			url := rec.Target.URL
			if rec.Tier != "" {
				continue
			}
			full++
			req, ok := ports.profiles[url]
			snaps := ports.snaps[url]
			switch {
			case !ok || len(snaps) == 0:
				t.Fatalf("%s: record %s was never fetched and profiled", backend, url)
			case req.Doc == nil:
				t.Fatalf("%s: profile of %s carries no Doc", backend, url)
			case snaps[0].status != 200:
				t.Fatalf("%s: record %s was fetched with status %d", backend, url, snaps[0].status)
			case unsafe.StringData(req.HTML) != unsafe.StringData(snaps[0].page.HTML):
				t.Fatalf("%s: profile of %s did not receive the fetch stage's page", backend, url)
			}
			if other, dup := docs[req.Doc]; dup {
				t.Fatalf("%s: %s and %s were profiled with one Doc", backend, other, url)
			}
			docs[req.Doc] = url
			if !slices.Equal(analysis.DocSignature(req.Doc), rec.Signature) {
				t.Errorf("%s: signature of %s was not taken from its profiled Doc", backend, url)
			}
			model := r.f.BaseModel
			if rec.Target.IsFWB() {
				model = r.f.Model
			}
			vec, err := model.Extract(features.Page{URL: url, HTML: req.HTML, Doc: req.Doc})
			if err != nil || model.Predict(vec) != rec.ClassifierScore {
				t.Errorf("%s: %s scores differently from its profiled Doc (%v)", backend, url, err)
			}
		}
		if full == 0 {
			t.Fatalf("%s: no full-tier record; the test is vacuous", backend)
		}

		// Replay every 200 page the run fetched through the fetch, classify
		// and admission stage functions: classify must receive the fetch
		// stage's parse, and the profile request must carry that same Doc.
		var profiled *htmlx.Node
		f := r.f
		f.world = world.World{Snap: replaySnap{ports}, Intel: replayIntel{doc: &profiled}}
		replayed := 0
		for url, snaps := range ports.snaps {
			if snaps[0].status != 200 {
				continue
			}
			p := f.fetchURL(crawler.StreamedURL{URL: url})
			doc := p.page.Doc
			if doc == nil {
				t.Fatalf("%s: the fetch stage left %s unparsed", backend, url)
			}
			if p = f.classifyURL(p); p.err != nil || p.page.Doc != doc {
				t.Fatalf("%s: classify of %s did not keep the fetch stage's Doc (err %v)", backend, url, p.err)
			}
			profiled = nil
			if err := f.admitRecord(p, p.score, "", time.Time{}); !errors.Is(err, errReplayDone) || profiled != doc {
				t.Fatalf("%s: the profile of %s did not get the fetch stage's Doc (err %v)", backend, url, err)
			}
			replayed++
		}
		t.Logf("%s: %d full-tier records, %d monitor re-probes, %d fetched pages replayed", backend, full, reprobes, replayed)
	}
}
