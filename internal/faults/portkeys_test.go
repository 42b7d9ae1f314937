package faults

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"freephish/internal/blocklist"
	"freephish/internal/crawler"
	"freephish/internal/obs"
	"freephish/internal/report"
	"freephish/internal/retry"
	"freephish/internal/social"
	"freephish/internal/threat"
	"freephish/internal/world"
)

// portStub implements every stateful world port with a fixed non-zero
// answer, counting calls per method.
type portStub struct{ calls map[string]int }

func newPortStub() *portStub { return &portStub{calls: map[string]int{}} }

func (s *portStub) world() world.World {
	return world.World{Intel: s, Feeds: s, Platform: s, Reports: s, Oracle: s}
}

func (s *portStub) Resolve(url string) (world.SiteInfo, error) {
	s.calls["Resolve"]++
	return world.SiteInfo{Hosted: true}, nil
}

func (s *portStub) Profile(req world.ProfileRequest) (*threat.Target, error) {
	s.calls["Profile"]++
	return &threat.Target{URL: req.URL}, nil
}

func (s *portStub) Assess(t *threat.Target) (map[string]blocklist.Verdict, []time.Time, error) {
	s.calls["Assess"]++
	return map[string]blocklist.Verdict{"gsb": {Detected: true}}, nil, nil
}

func (s *portStub) Listed(entity, url string) (bool, error) {
	s.calls["Listed"]++
	return true, nil
}

func (s *portStub) FeedNames() []string { return []string{"gsb"} }

func (s *portStub) AssessModeration(t *threat.Target) (bool, time.Time, error) {
	s.calls["AssessModeration"]++
	return true, time.Time{}, nil
}

func (s *portStub) RemovePost(platform threat.Platform, postID string, at time.Time) error {
	s.calls["RemovePost"]++
	return nil
}

func (s *portStub) LookupPost(platform threat.Platform, postID string) (world.PostStatus, error) {
	s.calls["LookupPost"]++
	return world.PostStatus{Exists: true}, nil
}

func (s *portStub) Disclose(t *threat.Target, at time.Time) (report.Outcome, error) {
	s.calls["Disclose"]++
	return report.Outcome{Acknowledged: true}, nil
}

func (s *portStub) Truth(url string) (world.GroundTruth, error) {
	s.calls["Truth"]++
	return world.GroundTruth{Known: true}, nil
}

func (s *portStub) Release(url string) error {
	s.calls["Release"]++
	return nil
}

var errLostAnswer = errors.New("port call lost the inner port's answer")

// answer folds a port call's error and whether its result is the stub's
// real answer into one error.
func answer(real bool, err error) error {
	if err == nil && !real {
		return errLostAnswer
	}
	return err
}

// portCase is one wrapped port method and the keys each decorator must
// see for it. key is both the retry key and the journal "port" attribute;
// url is the journal event's URL; endpoint and faultKey are the chaos
// (endpoint, key) pair as Injector.Observe reports it.
type portCase struct {
	method   string
	call     func(w world.World) error
	key      string
	url      string
	endpoint string
	faultKey string
}

var portCases = []portCase{
	{"Resolve", func(w world.World) error {
		info, err := w.Intel.Resolve("http://a.test/resolve")
		return answer(info.Hosted, err)
	}, "intel.resolve", "http://a.test/resolve", "intel", "port|intel.resolve|http://a.test/resolve"},
	{"Profile", func(w world.World) error {
		t, err := w.Intel.Profile(world.ProfileRequest{URL: "http://a.test/profile", PostID: "p1"})
		return answer(t != nil, err)
	}, "intel.profile", "http://a.test/profile", "intel", "port|intel.profile|http://a.test/profile"},
	{"Assess", func(w world.World) error {
		v, _, err := w.Feeds.Assess(&threat.Target{URL: "http://a.test/assess"})
		return answer(v["gsb"].Detected, err)
	}, "feeds.assess", "http://a.test/assess", "feeds", "port|feeds.assess|http://a.test/assess"},
	{"Listed", func(w world.World) error {
		listed, err := w.Feeds.Listed("gsb", "http://a.test/listed")
		return answer(listed, err)
	}, "feeds.listed.gsb", "http://a.test/listed", "feeds", "port|feeds.listed|gsb|http://a.test/listed"},
	{"AssessModeration", func(w world.World) error {
		removed, _, err := w.Platform.AssessModeration(&threat.Target{URL: "http://a.test/moderation"})
		return answer(removed, err)
	}, "platform.moderation", "http://a.test/moderation", "platform", "port|platform.moderation|http://a.test/moderation"},
	{"RemovePost", func(w world.World) error {
		return w.Platform.RemovePost(threat.Twitter, "twitter-1", time.Time{})
	}, "platform.remove.twitter", "", "platform", "port|platform.remove|twitter-1"},
	{"LookupPost", func(w world.World) error {
		st, err := w.Platform.LookupPost(threat.Facebook, "facebook-2")
		return answer(st.Exists, err)
	}, "platform.lookup.facebook", "", "platform", "port|platform.lookup|facebook-2"},
	{"Disclose", func(w world.World) error {
		out, err := w.Reports.Disclose(&threat.Target{URL: "http://a.test/disclose"}, time.Time{})
		return answer(out.Acknowledged, err)
	}, "reports.disclose", "http://a.test/disclose", "reports", "port|reports.disclose|http://a.test/disclose"},
	{"Truth", func(w world.World) error {
		truth, err := w.Oracle.Truth("http://a.test/truth")
		return answer(truth.Known, err)
	}, "oracle.truth", "http://a.test/truth", "oracle", "port|oracle.truth|http://a.test/truth"},
	{"Release", func(w world.World) error {
		return w.Oracle.Release("http://a.test/release")
	}, "oracle.release", "http://a.test/release", "oracle", "port|oracle.release|http://a.test/release"},
}

// TestPortKeys pins, for every wrapped port method, the keys the three
// decorators derive: the retry key (it fixes jitter and breaker
// buckets), the journal port/URL pair, and the chaos (endpoint, key)
// pair (it fixes the fault schedule). Every first attempt fails, so each
// call retries exactly once.
func TestPortKeys(t *testing.T) {
	type fault struct{ kind, endpoint, key string }
	for _, c := range portCases {
		t.Run(c.method, func(t *testing.T) {
			var fired []fault
			inj := NewInjector(1, Profile{ServerErrP: 1, MaxConsecutive: 1})
			inj.Observe = func(kind, endpoint, key string) { fired = append(fired, fault{kind, endpoint, key}) }
			var retried []string
			pol := &retry.Policy{
				MaxAttempts: 4,
				Sleep:       retry.NoSleep,
				OnRetry:     func(key string, _ int, _ time.Duration, _ error) { retried = append(retried, key) },
			}
			j := obs.NewJournal(nil, 0)
			w := world.WithJournal(world.WithRetry(chaosWorld(newPortStub().world(), inj), pol), j)

			if err := c.call(w); err != nil {
				t.Fatal(err)
			}
			if want := []string{c.key}; !reflect.DeepEqual(retried, want) {
				t.Errorf("retry keys = %q, want %q", retried, want)
			}
			if want := []fault{{KindServerErr, c.endpoint, c.faultKey}}; !reflect.DeepEqual(fired, want) {
				t.Errorf("chaos faults = %q, want %q", fired, want)
			}
			evs := j.Tail(10)
			if len(evs) != 1 {
				t.Fatalf("journal recorded %d events, want 1: %+v", len(evs), evs)
			}
			ev := evs[0]
			if want := map[string]string{"port": c.key}; ev.Type != obs.EvPort || ev.URL != c.url || !reflect.DeepEqual(ev.Attrs, want) {
				t.Errorf("journal event = (%s, %q, %v), want (%s, %q, %v)", ev.Type, ev.URL, ev.Attrs, obs.EvPort, c.url, want)
			}
		})
	}
}

// TestPageKeys pins the inproc poll page's keys: the chaos pair is
// (platform, "port|stream.page|<platform>") and the retry key is
// poll.<platform>, and a blackout named after the platform fails its
// cycle.
func TestPageKeys(t *testing.T) {
	epoch := time.Date(2022, 11, 1, 0, 0, 0, 0, time.UTC)
	now := epoch
	nets := map[threat.Platform]*social.Network{
		threat.Twitter: social.NewNetwork(threat.Twitter, func() time.Time { return now }),
	}
	nets[threat.Twitter].Publish("see https://a.weebly.com/", epoch)
	poller := func(inj *Injector, retried *[]string) *crawler.Poller {
		p := crawler.NewPoller(map[threat.Platform]string{threat.Twitter: ""}, nil, epoch)
		p.Pages = world.Pages(nets, inj.PortFault)
		p.Retry = &retry.Policy{
			MaxAttempts: 4,
			Sleep:       retry.NoSleep,
			OnRetry:     func(key string, _ int, _ time.Duration, _ error) { *retried = append(*retried, key) },
		}
		return p
	}

	type fault struct{ kind, endpoint, key string }
	var fired []fault
	inj := NewInjector(1, Profile{ServerErrP: 1, MaxConsecutive: 1})
	inj.Observe = func(kind, endpoint, key string) { fired = append(fired, fault{kind, endpoint, key}) }
	var retried []string
	now = epoch.Add(10 * time.Minute)
	got, err := poller(inj, &retried).Poll(now)
	if err != nil || len(got) != 1 {
		t.Fatalf("poll = %v, %v; want the one URL", got, err)
	}
	if want := []string{"poll.twitter"}; !reflect.DeepEqual(retried, want) {
		t.Errorf("retry keys = %q, want %q", retried, want)
	}
	if want := []fault{{KindServerErr, "twitter", "port|stream.page|twitter"}}; !reflect.DeepEqual(fired, want) {
		t.Errorf("chaos faults = %q, want %q", fired, want)
	}

	dark := NewInjector(1, Profile{Blackouts: []Blackout{{Endpoint: "twitter", Length: time.Hour}}})
	dark.SetClock(func() time.Time { return now }, epoch)
	retried = nil
	p := poller(dark, &retried)
	if got, err := p.Poll(now); err != nil || len(got) != 0 || p.Failed != 1 {
		t.Fatalf("blacked-out poll = %v, %v, failed=%d; want an empty failed cycle", got, err, p.Failed)
	}
	if n := dark.Counts()[KindBlackout]; n != 4 {
		t.Errorf("blackout faults = %d, want one per attempt (4)", n)
	}
}
