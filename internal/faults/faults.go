// Package faults is the deterministic fault-injection substrate: it
// decorates the simulation's HTTP handlers and fails world-port calls
// (through world.WithFaults) with seeded, configurable failures —
// injected latency, 5xx bursts, connection resets, truncated and
// malformed bodies, DNS resolution failures, and per-endpoint blackouts
// — so every failure path in the pipeline is exercised on purpose.
//
// Every decision is a pure hash of (seed, key, per-key request ordinal),
// never a draw from shared RNG state, so a chaos run is exactly
// reproducible and concurrent requests on different keys cannot perturb
// each other's fault schedule.
//
// The injector upholds two invariants that make a chaos-soak study
// byte-identical to the fault-free run:
//
//   - Failure faults (5xx, reset, dnsfail, blackout) fire BEFORE the
//     inner handler runs, so a retried POST executes its real side
//     effects exactly once. Body corruption (truncate/malform) applies
//     only to GETs, which the simulation serves read-only.
//   - MaxConsecutive caps each key's fault burst; after the cap the real
//     response must pass through. With a retry budget larger than the
//     cap, every logical operation eventually receives the same healthy
//     bytes the fault-free run saw. (Blackouts deliberately break this —
//     they persist for their whole window — which is why the default
//     profile has none.)
package faults

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"time"

	"freephish/internal/retry"
)

// Fault kinds, as counted and reported to Observe.
const (
	KindLatency   = "latency"
	KindServerErr = "5xx"
	KindReset     = "reset"
	KindTruncate  = "truncate"
	KindMalform   = "malform"
	KindBlackout  = "blackout"
	KindClockSkew = "clock_skew"
	KindDNSFail   = "dnsfail"
)

// Profile configures fault intensities. Probabilities are per request in
// [0, 1] and are mutually exclusive per request (at most one failure
// fault fires; latency composes with any of them).
type Profile struct {
	// LatencyP injects a wall-clock delay up to LatencyMax.
	LatencyP   float64
	LatencyMax time.Duration
	// ServerErrP answers 503 without invoking the real handler.
	ServerErrP float64
	// ResetP aborts the connection mid-response (http.ErrAbortHandler).
	ResetP float64
	// TruncateP delivers only half the declared body (GETs only), which a
	// faithful client observes as an unexpected EOF.
	TruncateP float64
	// MalformP prefixes the body with JSON-breaking garbage (GETs on
	// JSON endpoints only).
	MalformP float64
	// SkewP makes an endpoint report timestamps shifted by a seeded
	// offset uniform in [-SkewMax, +SkewMax] — the clock-skew fault the
	// active monitor consumes (a feed whose wall clock drifts reports
	// listing times that disagree with the simulation clock). Zero in
	// the default profile: skew perturbs observed timestamps, so it is
	// deliberately NOT byte-transparent the way the transient faults
	// are.
	SkewP   float64
	SkewMax time.Duration
	// DNSFailP makes the virtual host's name resolution fail: the request
	// aborts at the transport before any bytes of response, exactly like
	// NXDOMAIN/SERVFAIL on a flaky resolver. Decisions draw from a
	// dedicated "dns|"-prefixed per-key ordinal stream (like clock skew),
	// so enabling it never re-deals any other fault's schedule — but a
	// fired resolution failure shares the key's MaxConsecutive burst cap
	// with the other failure faults, so the retry budget still absorbs it
	// and the study stays byte-identical.
	DNSFailP float64
	// MaxConsecutive caps a key's fault burst; <= 0 means 2. Keep it
	// below the retry budget or chaos stops being transparent.
	MaxConsecutive int
	// Blackouts are per-endpoint outage windows in simulation time. A
	// blacked-out endpoint answers 503 for the whole window, ignoring
	// the burst cap — this is the fault class that exercises the circuit
	// breaker, and it is NOT part of the default profile because an
	// outage longer than the retry budget shifts work to later cycles.
	Blackouts []Blackout
}

// Blackout is one endpoint outage window, offset from the study epoch.
type Blackout struct {
	Endpoint string
	Start    time.Duration
	Length   time.Duration
}

// DefaultProfile returns the chaos-soak intensities: every transient
// fault class at a rate the retry budget fully absorbs.
func DefaultProfile() Profile {
	return Profile{
		LatencyP:       0.05,
		LatencyMax:     2 * time.Millisecond,
		ServerErrP:     0.05,
		ResetP:         0.03,
		TruncateP:      0.02,
		MalformP:       0.02,
		MaxConsecutive: 2,
	}
}

// ParseProfile parses a -faults flag value. "" / "off" / "none" disable
// injection (nil profile); "default" / "on" return DefaultProfile. Any
// other value is a comma-separated k=v spec starting from a zero profile
// (burst cap still defaults to 2):
//
//	latency=0.1,latency-max=5ms,5xx=0.2,reset=0.05,truncate=0.02,malform=0.02,dnsfail=0.05,skew=0.1,skew-max=30m,burst=2,blackout=web:24h:6h
func ParseProfile(spec string) (*Profile, error) {
	switch strings.TrimSpace(spec) {
	case "", "off", "none":
		return nil, nil
	case "default", "on":
		p := DefaultProfile()
		return &p, nil
	}
	p := Profile{MaxConsecutive: 2}
	for _, kv := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return nil, fmt.Errorf("faults: bad spec element %q (want k=v)", kv)
		}
		var err error
		switch k {
		case "latency":
			p.LatencyP, err = strconv.ParseFloat(v, 64)
		case "latency-max":
			p.LatencyMax, err = time.ParseDuration(v)
		case "5xx":
			p.ServerErrP, err = strconv.ParseFloat(v, 64)
		case "reset":
			p.ResetP, err = strconv.ParseFloat(v, 64)
		case "truncate":
			p.TruncateP, err = strconv.ParseFloat(v, 64)
		case "malform":
			p.MalformP, err = strconv.ParseFloat(v, 64)
		case "dnsfail":
			p.DNSFailP, err = strconv.ParseFloat(v, 64)
		case "skew":
			p.SkewP, err = strconv.ParseFloat(v, 64)
		case "skew-max":
			p.SkewMax, err = time.ParseDuration(v)
		case "burst":
			p.MaxConsecutive, err = strconv.Atoi(v)
		case "blackout":
			var b Blackout
			b, err = parseBlackout(v)
			p.Blackouts = append(p.Blackouts, b)
		default:
			return nil, fmt.Errorf("faults: unknown spec key %q", k)
		}
		if err != nil {
			return nil, fmt.Errorf("faults: bad value for %q: %w", k, err)
		}
	}
	if p.LatencyP > 0 && p.LatencyMax <= 0 {
		p.LatencyMax = 2 * time.Millisecond
	}
	if p.SkewP > 0 && p.SkewMax <= 0 {
		p.SkewMax = 30 * time.Minute
	}
	return &p, nil
}

func parseBlackout(v string) (Blackout, error) {
	parts := strings.Split(v, ":")
	if len(parts) != 3 {
		return Blackout{}, fmt.Errorf("want endpoint:start:length, got %q", v)
	}
	start, err := time.ParseDuration(parts[1])
	if err != nil {
		return Blackout{}, err
	}
	length, err := time.ParseDuration(parts[2])
	if err != nil {
		return Blackout{}, err
	}
	return Blackout{Endpoint: parts[0], Start: start, Length: length}, nil
}

// Injector makes the fault decisions. One injector serves a whole run;
// it is safe for concurrent use.
type Injector struct {
	seed int64
	prof Profile

	// now/epoch drive blackout windows (sim time); nil now disables them.
	now   func() time.Time
	epoch time.Time
	// sleep serves injected latency; defaults to time.Sleep.
	sleep func(time.Duration)

	// Observe, when set, receives each injected fault's kind plus the
	// endpoint and request key it hit — the hook the metrics layer counts
	// through and the journal records fault events from, so chaos runs
	// are explainable per call site. Must be cheap and concurrency-safe.
	// Set it before serving traffic.
	Observe func(kind, endpoint, key string)

	mu     sync.Mutex
	streak map[string]*keyState
	counts map[string]uint64
}

// keyState is one key's request ordinal and current fault streak.
type keyState struct {
	n      uint64
	consec int
}

// NewInjector returns an injector for the profile, with all decisions
// derived from seed.
func NewInjector(seed int64, prof Profile) *Injector {
	if prof.MaxConsecutive <= 0 {
		prof.MaxConsecutive = 2
	}
	return &Injector{
		seed:   seed,
		prof:   prof,
		sleep:  time.Sleep,
		streak: make(map[string]*keyState),
		counts: make(map[string]uint64),
	}
}

// SetClock supplies the simulation clock and epoch; required for
// Blackouts to take effect.
func (i *Injector) SetClock(now func() time.Time, epoch time.Time) {
	i.now, i.epoch = now, epoch
}

// SetSleep overrides how injected latency is served (tests pass a no-op).
func (i *Injector) SetSleep(fn func(time.Duration)) { i.sleep = fn }

// Counts returns a copy of the per-kind injection counters.
func (i *Injector) Counts() map[string]uint64 {
	i.mu.Lock()
	defer i.mu.Unlock()
	out := make(map[string]uint64, len(i.counts))
	for k, v := range i.counts {
		out[k] = v
	}
	return out
}

// decide picks the fault (if any) for one request on key. corruptible
// gates truncate faults, jsonBody additionally gates malform.
func (i *Injector) decide(endpoint, key string, corruptible, jsonBody bool) (kind string, latency time.Duration) {
	i.mu.Lock()
	st := i.streak[key]
	if st == nil {
		st = &keyState{}
		i.streak[key] = st
	}
	n := st.n
	st.n++
	if i.now != nil {
		at := i.now().Sub(i.epoch)
		for _, b := range i.prof.Blackouts {
			if b.Endpoint == endpoint && at >= b.Start && at < b.Start+b.Length {
				i.counts[KindBlackout]++
				obs := i.Observe
				i.mu.Unlock()
				if obs != nil {
					obs(KindBlackout, endpoint, key)
				}
				return KindBlackout, 0
			}
		}
	}
	if i.prof.LatencyP > 0 && unitAt(i.seed, key, n, 1) < i.prof.LatencyP {
		latency = time.Duration(unitAt(i.seed, key, n, 2) * float64(i.prof.LatencyMax))
	}
	// DNS resolution failure draws from its own "dns|"-prefixed stream
	// (like clock skew) so toggling DNSFailP never re-deals the other
	// faults' schedules. A fired dnsfail pre-empts the shared pick below
	// and flows into the same streak accounting, keeping the joint burst
	// within MaxConsecutive.
	if i.prof.DNSFailP > 0 {
		dk := "dns|" + key
		dst := i.streak[dk]
		if dst == nil {
			dst = &keyState{}
			i.streak[dk] = dst
		}
		dn := dst.n
		dst.n++
		if unitAt(i.seed, dk, dn, 5) < i.prof.DNSFailP {
			kind = KindDNSFail
		}
	}
	if kind == "" {
		u := unitAt(i.seed, key, n, 0)
		t1 := i.prof.ServerErrP
		t2 := t1 + i.prof.ResetP
		t3, t4 := t2, t2
		if corruptible {
			t3 = t2 + i.prof.TruncateP
			t4 = t3
			if jsonBody {
				t4 = t3 + i.prof.MalformP
			}
		}
		switch {
		case u < t1:
			kind = KindServerErr
		case u < t2:
			kind = KindReset
		case u < t3:
			kind = KindTruncate
		case u < t4:
			kind = KindMalform
		}
	}
	if kind != "" && st.consec >= i.prof.MaxConsecutive {
		// Burst cap: force a healthy pass-through so the retry budget is
		// always sufficient and chaos stays invisible in study output.
		kind = ""
	}
	if kind != "" {
		st.consec++
		i.counts[kind]++
	} else {
		st.consec = 0
	}
	if latency > 0 {
		i.counts[KindLatency]++
	}
	obs := i.Observe
	i.mu.Unlock()
	if obs != nil {
		if latency > 0 {
			obs(KindLatency, endpoint, key)
		}
		if kind != "" {
			obs(kind, endpoint, key)
		}
	}
	return kind, latency
}

// unitAt derives a uniform [0,1) value from (seed, key, ordinal, fold).
func unitAt(seed int64, key string, n, fold uint64) float64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	var b [24]byte
	binary.LittleEndian.PutUint64(b[:8], uint64(seed))
	binary.LittleEndian.PutUint64(b[8:16], n)
	binary.LittleEndian.PutUint64(b[16:], fold)
	h.Write(b[:])
	return float64(h.Sum64()>>11) / float64(1<<53)
}

// ClockSkew returns the seeded clock-skew offset for one timestamp the
// caller is about to consume from endpoint, or zero when the skew fault
// does not fire. Decisions hash (seed, key, per-key ordinal) exactly
// like decide — per-key ordinals make the schedule independent of other
// keys' traffic, so a sharded study observes the same skews as a
// single-process run — and each fired skew is counted and reported
// through Observe as KindClockSkew.
func (i *Injector) ClockSkew(endpoint, key string) time.Duration {
	if i.prof.SkewP <= 0 || i.prof.SkewMax <= 0 {
		return 0
	}
	sk := "skew|" + key
	i.mu.Lock()
	st := i.streak[sk]
	if st == nil {
		st = &keyState{}
		i.streak[sk] = st
	}
	n := st.n
	st.n++
	if unitAt(i.seed, sk, n, 3) >= i.prof.SkewP {
		i.mu.Unlock()
		return 0
	}
	d := time.Duration((unitAt(i.seed, sk, n, 4)*2 - 1) * float64(i.prof.SkewMax))
	i.counts[KindClockSkew]++
	obs := i.Observe
	i.mu.Unlock()
	if obs != nil {
		obs(KindClockSkew, endpoint, key)
	}
	return d
}

// PortFault decides whether one world-port call fails, using the
// profile's ServerErrP + ResetP as the combined error rate. Injected
// errors are marked retry.Transient so the unified policy absorbs them;
// endpoint names the port family for blackout matching. It is the fault
// slot world.WithFaults takes.
func (i *Injector) PortFault(endpoint, key string) error {
	kind, latency := i.decide(endpoint, "port|"+key, false, false)
	if latency > 0 {
		i.sleep(latency)
	}
	switch kind {
	case "":
		return nil
	case KindBlackout:
		return retry.Transient(fmt.Errorf("faults: %s blacked out: %w", endpoint, &retry.StatusError{Code: http.StatusServiceUnavailable}))
	default:
		return retry.Transient(fmt.Errorf("faults: injected %s on %s", kind, key))
	}
}

// Middleware decorates h with injected faults. endpoint names the
// decorated server (blackout matching and per-endpoint accounting);
// jsonBody marks servers whose GET responses are JSON, enabling
// malformed-body corruption.
//
// Failure faults (5xx, reset, dnsfail, blackout) fire before the inner
// handler, so retried POSTs never double-apply side effects; body
// corruption wraps GETs only.
func (i *Injector) Middleware(endpoint string, jsonBody bool, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		kind := i.request(endpoint, r.Method, r.Host, r.URL.RequestURI(), jsonBody)
		switch kind {
		case "":
			h.ServeHTTP(w, r)
		case KindServerErr, KindBlackout:
			http.Error(w, unavailable, http.StatusServiceUnavailable)
		case KindReset, KindDNSFail:
			// A failed resolution and a reset connection look identical from
			// the client's side of the socket: the request dies at the
			// transport with no response bytes.
			panic(http.ErrAbortHandler)
		case KindTruncate:
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, r)
			body := rec.Body.Bytes()
			if len(body) < 2 {
				// Nothing to truncate; degrade to a plain 503.
				http.Error(w, unavailable, http.StatusServiceUnavailable)
				return
			}
			copyHeader(w.Header(), rec.Header())
			// Declare the full length, deliver half: the client's read
			// fails with unexpected EOF, exactly like a dropped link.
			w.Header().Set("Content-Length", strconv.Itoa(len(body)))
			w.WriteHeader(rec.Code)
			w.Write(body[:len(body)/2])
		case KindMalform:
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, r)
			// The unclosed object guarantees a decode error no matter
			// what the real body was.
			body := append([]byte(`{"faults-injected-garbage":`), rec.Body.Bytes()...)
			copyHeader(w.Header(), rec.Header())
			w.Header().Set("Content-Length", strconv.Itoa(len(body)))
			w.WriteHeader(rec.Code)
			w.Write(body)
		}
	})
}

// unavailable is the message of an injected 503; http.Error sends it with
// a trailing newline.
const unavailable = "injected fault: service unavailable"

// request draws the fault for one request of method on host+requestURI
// and serves its injected latency: the decision Middleware makes, keyed
// "<endpoint>|<method>|<host>|<requestURI>".
func (i *Injector) request(endpoint, method, host, requestURI string, jsonBody bool) string {
	key := endpoint + "|" + method + "|" + host + "|" + requestURI
	kind, latency := i.decide(endpoint, key, method == http.MethodGet, jsonBody)
	if latency > 0 {
		i.sleep(latency)
	}
	return kind
}

// Get serves one in-process GET of host+requestURI on endpoint, an HTML
// endpoint, under the fault Middleware would inject into the same
// request over HTTP: it draws under the same key, and serve runs only
// where the inner handler would. The answer is what a client of the
// middleware reads: a 5xx or blackout is a 503 page with http.Error's
// body; a reset or resolution failure is a transient transport error;
// a truncation is a transient short read (io.ErrUnexpectedEOF) returned
// with the half body it delivered, or a 503 page when the body is too
// short to cut.
func (i *Injector) Get(endpoint, host, requestURI string, serve func() (int, string)) (int, string, error) {
	switch kind := i.request(endpoint, http.MethodGet, host, requestURI, false); kind {
	case KindServerErr, KindBlackout:
		return http.StatusServiceUnavailable, unavailable + "\n", nil
	case KindReset, KindDNSFail:
		return 0, "", retry.Transient(fmt.Errorf("faults: GET http://%s%s: injected %s", host, requestURI, kind))
	case KindTruncate:
		status, body := serve()
		if len(body) < 2 {
			return http.StatusServiceUnavailable, unavailable + "\n", nil
		}
		return status, body[:len(body)/2], retry.Transient(fmt.Errorf("faults: GET http://%s%s: injected truncate: %w", host, requestURI, io.ErrUnexpectedEOF))
	}
	status, body := serve()
	return status, body, nil
}

func copyHeader(dst, src http.Header) {
	for k, vs := range src {
		for _, v := range vs {
			dst.Add(k, v)
		}
	}
}
