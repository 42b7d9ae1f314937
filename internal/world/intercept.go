package world

import (
	"context"
	"fmt"
	"time"

	"freephish/internal/blocklist"
	"freephish/internal/crawler"
	"freephish/internal/obs"
	"freephish/internal/report"
	"freephish/internal/retry"
	"freephish/internal/social"
	"freephish/internal/threat"
)

// WithFaults decorates every stateful port of w with pre-call injected
// failures: fault runs before the inner port with the port family as
// endpoint and the call's chaos key, and a non-nil answer fails the call
// without running the inner port, so a retried call applies its real
// side effects exactly once. (*faults.Injector).PortFault is such a
// func. A nil fault returns w unchanged.
func WithFaults(w World, fault func(endpoint, key string) error) World {
	if fault == nil {
		return w
	}
	return (&intercept{w: w, fault: fault}).wrap()
}

// WithRetry decorates every stateful port of w with the unified retry
// policy: failures marked retry.Transient (injected chaos faults,
// adapter transport errors, 5xx answers) are retried under the policy's
// backoff and per-port circuit breaker, while application errors pass
// through on the first attempt. A nil policy returns w unchanged.
func WithRetry(w World, p *retry.Policy) World {
	if p == nil {
		return w
	}
	return (&intercept{w: w, retry: p}).wrap()
}

// WithJournal decorates every stateful port of w so each call records an
// ops-class "port" event in the journal: the port key, the URL where one
// is in scope, and an error marker on failure. The port key is also the
// retry key only under WithRetry (the inproc backend); the HTTP adapter
// keys its own retries by SimAPI path ("simapi/v1/site/resolve") or feed
// ("feed.<entity>"). The events land only in the journal's dashboard
// ring — port-call interleaving is scheduler-dependent under concurrent
// pipeline workers, so they are deliberately outside the canonical
// lifecycle file. A nil journal returns w unchanged.
func WithJournal(w World, j *obs.Journal) World {
	if j == nil {
		return w
	}
	return (&intercept{w: w, journal: j}).wrap()
}

// intercept implements the five stateful ports over an inner World and
// runs every call through exactly one slot: a pre-call fault, a retry
// policy, or a post-call journal record. Stream and Snap are never
// wrapped: the poller and fetcher retry and observe themselves. The
// fetcher meets chaos at the HTTP layer on both backends; the poller
// meets it there on the http backend and through Pages' fault slot on
// the inproc one.
type intercept struct {
	w       World
	fault   func(endpoint, key string) error
	retry   *retry.Policy
	journal *obs.Journal
}

// wrap returns the inner World with each non-nil stateful port replaced
// by x.
func (x *intercept) wrap() World {
	out := x.w
	if out.Intel != nil {
		out.Intel = x
	}
	if out.Feeds != nil {
		out.Feeds = x
	}
	if out.Platform != nil {
		out.Platform = x
	}
	if out.Reports != nil {
		out.Reports = x
	}
	if out.Oracle != nil {
		out.Oracle = x
	}
	return out
}

// run makes one port call through x's slot. call is a concrete method
// argument rather than a stored func so it stays on the caller's stack.
func (x *intercept) run(c portCall, call func() error) error {
	switch {
	case x.fault != nil:
		if err := x.fault(portOps[c.op].family, c.faultKey()); err != nil {
			return err
		}
		return call()
	case x.retry != nil:
		return x.retry.Do(context.Background(), c.key(), call)
	}
	err := call()
	if err != nil {
		x.journal.RecordOps(c.url, obs.EvPort, "port", c.key(), "err", err.Error())
	} else {
		x.journal.RecordOps(c.url, obs.EvPort, "port", c.key())
	}
	return err
}

// portOp names one wrapped port method.
type portOp uint8

const (
	opResolve portOp = iota
	opProfile
	opAssess
	opListed
	opModeration
	opRemove
	opLookup
	opDisclose
	opTruth
	opRelease
)

// portOps is the key table: each method's port family (the chaos
// endpoint) and key stem. Retry keys fix backoff jitter and breaker
// buckets and chaos keys fix the fault schedule, so neither may drift.
var portOps = [...]struct{ family, name string }{
	opResolve:    {"intel", "intel.resolve"},
	opProfile:    {"intel", "intel.profile"},
	opAssess:     {"feeds", "feeds.assess"},
	opListed:     {"feeds", "feeds.listed"},
	opModeration: {"platform", "platform.moderation"},
	opRemove:     {"platform", "platform.remove"},
	opLookup:     {"platform", "platform.lookup"},
	opDisclose:   {"reports", "reports.disclose"},
	opTruth:      {"oracle", "oracle.truth"},
	opRelease:    {"oracle", "oracle.release"},
}

// pageKey is the chaos key stem of one in-process poll page (see Pages);
// the poller's own retry key is poll.<platform>.
const pageKey = "stream.page"

// Pages is the inproc poller's page source (Sim.Networks in a study):
// each page comes straight from the platform's network through
// social.Network.Page, the page GET /posts serves, with no HTTP request
// or JSON codec. fault, when non-nil, runs before each page with the
// platform as endpoint, so blackouts match on the platform name as they
// do over HTTP, and the key "stream.page|<platform>"; a non-nil answer
// fails the attempt.
func Pages(networks map[threat.Platform]*social.Network, fault func(endpoint, key string) error) crawler.PageSource {
	return func(plat threat.Platform, since time.Time, offset int) ([]*social.Post, bool, error) {
		if fault != nil {
			if err := fault(string(plat), pageKey+"|"+string(plat)); err != nil {
				return nil, false, err
			}
		}
		nw, ok := networks[plat]
		if !ok {
			return nil, false, fmt.Errorf("world: no platform %q", plat)
		}
		page, more := nw.Page(since, offset)
		return page, more, nil
	}
}

// portCall describes one call to the slots. sub is the feed entity of
// Listed or the platform of a post operation; post is the post ID.
type portCall struct {
	op             portOp
	url, sub, post string
}

// key is the retry and journal key: the stem, suffixed by ".<entity>" or
// ".<platform>" where the call names one.
func (c portCall) key() string {
	switch c.op {
	case opListed, opRemove, opLookup:
		return portOps[c.op].name + "." + c.sub
	}
	return portOps[c.op].name
}

// faultKey is the chaos key: the stem and "|<url>", with the entity
// before the URL for Listed; post operations, which have no URL, key by
// post ID.
func (c portCall) faultKey() string {
	switch c.op {
	case opListed:
		return portOps[c.op].name + "|" + c.sub + "|" + c.url
	case opRemove, opLookup:
		return portOps[c.op].name + "|" + c.post
	}
	return portOps[c.op].name + "|" + c.url
}

func (x *intercept) Resolve(url string) (SiteInfo, error) {
	var info SiteInfo
	err := x.run(portCall{op: opResolve, url: url}, func() (err error) {
		info, err = x.w.Intel.Resolve(url)
		return err
	})
	return info, err
}

func (x *intercept) Profile(req ProfileRequest) (*threat.Target, error) {
	var t *threat.Target
	err := x.run(portCall{op: opProfile, url: req.URL}, func() (err error) {
		t, err = x.w.Intel.Profile(req)
		return err
	})
	return t, err
}

func (x *intercept) Assess(t *threat.Target) (map[string]blocklist.Verdict, []time.Time, error) {
	var verdicts map[string]blocklist.Verdict
	var vt []time.Time
	err := x.run(portCall{op: opAssess, url: t.URL}, func() (err error) {
		verdicts, vt, err = x.w.Feeds.Assess(t)
		return err
	})
	return verdicts, vt, err
}

func (x *intercept) Listed(entity, url string) (bool, error) {
	var listed bool
	err := x.run(portCall{op: opListed, url: url, sub: entity}, func() (err error) {
		listed, err = x.w.Feeds.Listed(entity, url)
		return err
	})
	return listed, err
}

func (x *intercept) FeedNames() []string { return x.w.Feeds.FeedNames() }

func (x *intercept) AssessModeration(t *threat.Target) (bool, time.Time, error) {
	var removed bool
	var at time.Time
	err := x.run(portCall{op: opModeration, url: t.URL}, func() (err error) {
		removed, at, err = x.w.Platform.AssessModeration(t)
		return err
	})
	return removed, at, err
}

func (x *intercept) RemovePost(platform threat.Platform, postID string, at time.Time) error {
	return x.run(portCall{op: opRemove, sub: string(platform), post: postID}, func() error {
		return x.w.Platform.RemovePost(platform, postID, at)
	})
}

func (x *intercept) LookupPost(platform threat.Platform, postID string) (PostStatus, error) {
	var st PostStatus
	err := x.run(portCall{op: opLookup, sub: string(platform), post: postID}, func() (err error) {
		st, err = x.w.Platform.LookupPost(platform, postID)
		return err
	})
	return st, err
}

func (x *intercept) Disclose(t *threat.Target, at time.Time) (report.Outcome, error) {
	var out report.Outcome
	err := x.run(portCall{op: opDisclose, url: t.URL}, func() (err error) {
		out, err = x.w.Reports.Disclose(t, at)
		return err
	})
	return out, err
}

func (x *intercept) Truth(url string) (GroundTruth, error) {
	var truth GroundTruth
	err := x.run(portCall{op: opTruth, url: url}, func() (err error) {
		truth, err = x.w.Oracle.Truth(url)
		return err
	})
	return truth, err
}

func (x *intercept) Release(url string) error {
	return x.run(portCall{op: opRelease, url: url}, func() error {
		return x.w.Oracle.Release(url)
	})
}
