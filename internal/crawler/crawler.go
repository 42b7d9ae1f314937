// Package crawler implements the FreePhish streaming and pre-processing
// modules (§4.1): polling the Twitter/CrowdTangle-style APIs every 10
// minutes for new posts, extracting URLs with the streaming regex, and
// capturing full website snapshots over HTTP for feature extraction.
//
// A Poller reads every page through one PageSource and a Fetcher every
// snapshot through one SnapshotSource. Either may serve in process; left
// nil, each defaults to real net/http. Because the simulated web serves
// every domain from one listener, the HTTP snapshot source rewrites the
// dial target to the simulation endpoint while preserving the original
// URL in the Host header — the same pattern used to point a crawler at a
// staging mirror.
package crawler

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"slices"
	"strings"
	"time"
	"unicode/utf8"

	"freephish/internal/features"
	"freephish/internal/retry"
	"freephish/internal/social"
	"freephish/internal/threat"
	"freephish/internal/urlx"
)

// StreamedURL is one URL extracted from a social post.
type StreamedURL struct {
	URL      string
	Platform threat.Platform
	PostID   string
	Text     string
	At       time.Time
}

// PageSource serves one page of a platform's posts, as GET
// {endpoint}/posts?since=…&offset=… answers it: the page
// social.Network.Page returns and whether another page follows. since
// arrives truncated to whole seconds, as the RFC3339 query carries it. An
// error fails the attempt; one marked retry.Transient is retried.
type PageSource func(plat threat.Platform, since time.Time, offset int) ([]*social.Post, bool, error)

// maxPageBytes caps one HTTP poll page body: MaxPageSize posts at 16 KiB
// of JSON each, far above any post the platforms serve. A longer body
// fails the platform's cycle instead of growing the decoder without
// bound.
const maxPageBytes = social.MaxPageSize * (16 << 10)

// Poller streams posts from the platform APIs.
type Poller struct {
	// Endpoints maps each platform to the base URL of its posts API. With
	// Pages set, only its keys matter: they name the platforms polled.
	Endpoints map[threat.Platform]string
	Client    *http.Client
	// Pages serves every page. nil means a GET over Client of each
	// platform's endpoint; paging, dedup, cursors, the limiter, retries
	// and the counters do not depend on the source.
	Pages PageSource
	// Limiter, when set, gates API requests (platform quota regimes). A
	// denied platform is skipped for the cycle; its cursor does not
	// advance, so the next permitted poll catches up with no data loss.
	Limiter *RateLimiter
	// cursor tracks the last poll time per platform.
	cursor map[threat.Platform]time.Time
	// seen dedups post IDs across polls. It is a bounded two-generation
	// set sized off recent poll volume — a six-month stream must not pin
	// every post ID it ever saw in memory.
	seen *seenSet
	// plats is Poll's reused buffer of platform names; keys caches each
	// platform's poll.<platform> retry key. Neither allocates per cycle.
	plats []threat.Platform
	keys  map[threat.Platform]string
	// Skipped counts rate-limited platform polls.
	Skipped int
	// Failed counts platform polls skipped because the API failed
	// (transport error, non-200 status, or an undecodable body). Like a
	// rate-limited poll, a failed poll leaves the platform's cursor
	// untouched, so the next healthy poll catches up with no data loss.
	Failed int
	// Observe, when set, receives one event per platform per Poll cycle:
	// how many posts the API returned, how many were duplicates of
	// earlier polls, how many URLs were extracted, and whether the
	// platform was skipped by the rate limiter. Must be cheap; it runs on
	// the polling hot path.
	Observe func(platform threat.Platform, posts, dupPosts, urls int, skipped bool)
	// ObserveFailure, when set, receives each failed platform poll.
	ObserveFailure func(platform threat.Platform, err error)
	// Retry, when set, is the unified retry policy for page fetches: a
	// transport error, 5xx answer, or undecodable body gets the policy's
	// backoff before the platform's cycle is declared failed. nil means
	// one attempt per page.
	Retry *retry.Policy
}

// NewPoller returns a Poller starting its cursors at start. A nil client
// gets a private client with a timeout — never http.DefaultClient, whose
// missing timeout would let one stuck platform API hang the poll loop
// forever.
func NewPoller(endpoints map[threat.Platform]string, client *http.Client, start time.Time) *Poller {
	if client == nil {
		client = &http.Client{Timeout: 15 * time.Second}
	}
	cur := make(map[threat.Platform]time.Time, len(endpoints))
	for p := range endpoints {
		cur[p] = start
	}
	return &Poller{Endpoints: endpoints, Client: client, cursor: cur, seen: newSeenSet(),
		keys: make(map[threat.Platform]string, len(endpoints))}
}

// SeenLen reports how many post IDs the dedup set currently retains.
func (p *Poller) SeenLen() int { return p.seen.Len() }

// Poll fetches posts newer than each platform cursor, extracts their URLs,
// deduplicates across polls, and advances the cursors to now. Platforms are
// polled in name order so downstream randomness stays reproducible.
//
// A platform whose API fails mid-cycle (transport error, 5xx, bad body) is
// skipped for the cycle exactly like a rate-limited one: its cursor does
// not advance, so the next healthy poll re-fetches the window and the
// dedup set absorbs the re-delivery. Posts from pages that arrived before
// the failure are still emitted — they were genuinely observed.
func (p *Poller) Poll(now time.Time) ([]StreamedURL, error) {
	plats := p.plats[:0]
	for plat := range p.Endpoints {
		plats = append(plats, plat)
	}
	slices.Sort(plats)
	p.plats = plats
	var out []StreamedURL
	cyclePosts := 0
	for _, plat := range plats {
		if p.Limiter != nil && !p.Limiter.Allow() {
			p.Skipped++
			if p.Observe != nil {
				p.Observe(plat, 0, 0, 0, true)
			}
			continue // cursor untouched: the next allowed poll catches up
		}
		var nPosts, nDup, nURLs int
		var failure error
		// Page through the window: the platform API caps one response, so a
		// burst of posts spans multiple requests.
		for offset := 0; ; {
			posts, more, err := p.page(plat, offset)
			if err != nil {
				failure = err
				break
			}
			if more && len(posts) == 0 {
				// A no-progress page: the API claims more results but
				// returned none, so offset would never advance. Spinning
				// here livelocked the poller; treat it like any other
				// failed poll — cursor untouched, re-fetched next cycle.
				failure = fmt.Errorf("crawler: poll %s: no-progress page at offset %d (empty body with more pending)", plat, offset)
				break
			}
			for _, post := range posts {
				nPosts++
				id := jsonText(post.ID)
				if p.seen.Has(id) {
					nDup++
					continue
				}
				p.seen.Add(id)
				text := jsonText(post.Text)
				for _, raw := range urlx.ExtractURLs(text) {
					nURLs++
					out = append(out, StreamedURL{
						URL: raw, Platform: plat, PostID: id, Text: text, At: post.At,
					})
				}
			}
			if !more {
				break
			}
			offset += len(posts)
		}
		cyclePosts += nPosts
		if p.Observe != nil {
			p.Observe(plat, nPosts, nDup, nURLs, false)
		}
		if failure != nil {
			// Cursor untouched: the next healthy poll catches up.
			p.Failed++
			if p.ObserveFailure != nil {
				p.ObserveFailure(plat, failure)
			}
			continue
		}
		p.cursor[plat] = now
	}
	p.seen.EndCycle(cyclePosts)
	return out, nil
}

// page fetches one page of plat's posts newer than its cursor from Pages,
// or over HTTP when Pages is nil, retrying transient failures under the
// unified policy before the cycle gives up on the platform. The cursor
// goes out truncated to whole seconds, as the RFC3339 query carries it.
func (p *Poller) page(plat threat.Platform, offset int) (posts []*social.Post, more bool, err error) {
	src := p.Pages
	if src == nil {
		src = p.httpPage
	}
	since := p.cursor[plat].Truncate(time.Second)
	err = p.retry(plat, func() error {
		var err error
		posts, more, err = src(plat, since, offset)
		return err
	})
	return posts, more, err
}

// jsonText returns s as a JSON round trip delivers it: encoding/json
// writes each byte of invalid UTF-8 as U+FFFD, where strings.ToValidUTF8
// would replace a run of them once.
func jsonText(s string) string {
	if utf8.ValidString(s) {
		return s
	}
	var b strings.Builder
	for i := 0; i < len(s); {
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b.WriteString(string(utf8.RuneError))
		} else {
			b.WriteString(s[i : i+size])
		}
		i += size
	}
	return b.String()
}

// retry runs one page attempt under the unified policy, keyed
// poll.<platform>; a nil policy makes one attempt.
func (p *Poller) retry(plat threat.Platform, op func() error) error {
	if p.Retry == nil {
		return op()
	}
	key, ok := p.keys[plat]
	if !ok {
		key = "poll." + string(plat)
		p.keys[plat] = key
	}
	return p.Retry.Do(context.Background(), key, op)
}

// httpPage is the PageSource over Client: GET {endpoint}/posts?since=…&offset=…
// decoded from the posts API's JSON. A transport error, 5xx answer or
// undecodable body is transient; a body longer than maxPageBytes is not,
// since the same page would come back.
func (p *Poller) httpPage(plat threat.Platform, since time.Time, offset int) ([]*social.Post, bool, error) {
	u := fmt.Sprintf("%s/posts?since=%s&offset=%d", p.Endpoints[plat],
		url.QueryEscape(since.Format(time.RFC3339)), offset)
	resp, err := p.Client.Get(u)
	if err != nil {
		return nil, false, retry.Transient(fmt.Errorf("crawler: poll %s: %w", plat, err))
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		err := fmt.Errorf("crawler: poll %s: status %d", plat, resp.StatusCode)
		if resp.StatusCode >= 500 {
			return nil, false, retry.Transient(err)
		}
		return nil, false, err
	}
	var posts []*social.Post
	err = json.NewDecoder(http.MaxBytesReader(nil, resp.Body, maxPageBytes)).Decode(&posts)
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return nil, false, fmt.Errorf("crawler: %s feed page over %d bytes: %w", plat, tooLarge.Limit, err)
	}
	if err == nil && slices.Contains(posts, nil) {
		err = errors.New("null post")
	}
	if err != nil {
		return nil, false, retry.Transient(fmt.Errorf("crawler: decode %s feed: %w", plat, err))
	}
	return posts, resp.Header.Get("X-More") == "1", nil
}

// ChromiumUA is the User-Agent the snapshotter presents. The paper's
// pre-processing module drives a real Chromium via Selenium, which is what
// lets it see through the server-side UA cloaking some phishing sites use
// against crawlers (§6); a bot-like UA would be served a decoy page.
const ChromiumUA = "Mozilla/5.0 (X11; Linux x86_64) AppleWebKit/537.36 (KHTML, like Gecko) Chrome/107.0.0.0 Safari/537.36"

// SnapshotSource serves one page in process, in place of GET target with
// the given User-Agent over HTTP: the status and body a client would read.
// An error fails the attempt; one marked retry.Transient is retried. A
// read that breaks off returns the bytes delivered before the break
// together with its error, as io.Reader does; if those reach
// MaxSnapshotBytes, the capped read never sees the break.
type SnapshotSource func(target *url.URL, userAgent string) (status int, body string, err error)

// MaxSnapshotBytes caps one snapshot body on both paths: longer bodies
// are cut to their first MaxSnapshotBytes bytes.
const MaxSnapshotBytes = 4 << 20

// Fetcher captures website snapshots. Base, when set, redirects all dials
// to the simulation endpoint while keeping the target URL's host in the
// Host header.
type Fetcher struct {
	Base   string // e.g. the httptest server URL fronting the simulated web
	Client *http.Client
	// Source, when set, serves every page in process instead of over
	// Client, and Base is ignored. Retries, the status contract and the
	// observer behave exactly as on the HTTP path.
	Source SnapshotSource
	// Retry is the unified retry policy governing attempts, backoff, and
	// circuit breaking (keyed per target host). NewFetcher installs 3
	// attempts with a 250ms base delay (real crawls see transient resets
	// constantly); nil means a single attempt.
	Retry *retry.Policy
	// UserAgent presented to the site; defaults to ChromiumUA.
	UserAgent string
	// Observe, when set, receives one event per Snapshot: the final HTTP
	// status (0 on transport failure), how many attempts were made, the
	// total wall-clock latency including retries, and the terminal error
	// if every attempt failed. Must be cheap; it runs per fetched URL.
	Observe func(status, attempts int, wall time.Duration, err error)
}

// defaultFetchClient backs a Fetcher whose Client was left nil — with a
// timeout, so a stalled site cannot hang a snapshot forever.
var defaultFetchClient = &http.Client{Timeout: 15 * time.Second}

// NewFetcher returns a Fetcher pointed at the simulation endpoint.
func NewFetcher(base string) *Fetcher {
	return &Fetcher{
		Base:   base,
		Client: &http.Client{Timeout: 10 * time.Second},
		Retry:  &retry.Policy{MaxAttempts: 3, BaseDelay: 250 * time.Millisecond, Multiplier: 2},
	}
}

// singleAttempt is the policy of a Fetcher whose Retry is nil.
var singleAttempt = &retry.Policy{MaxAttempts: 1}

// Snapshot fetches the page at rawURL and returns it with the HTTP status.
// A non-200 status is not an error: the analysis module uses 404/410 as the
// "site taken down" signal.
func (f *Fetcher) Snapshot(rawURL string) (features.Page, int, error) {
	return f.SnapshotContext(context.Background(), rawURL)
}

// SnapshotContext is Snapshot with cancellation: ctx aborts both
// in-flight requests and backoff waits, so a shutdown is never blocked
// behind a retry loop.
//
// Transport errors, short reads, and 5xx answers are all retried under
// the policy; when every attempt 5xxes, the final response is still
// returned with its status (an overloaded host is data, not a crash).
func (f *Fetcher) SnapshotContext(ctx context.Context, rawURL string) (features.Page, int, error) {
	target, err := url.Parse(rawURL)
	if err != nil {
		return features.Page{}, 0, fmt.Errorf("crawler: bad URL %q: %w", rawURL, err)
	}
	ua := f.UserAgent
	if ua == "" {
		ua = ChromiumUA
	}
	get := f.Source
	if get == nil {
		if get, err = f.httpSource(ctx); err != nil {
			return features.Page{}, 0, err
		}
	}
	pol := f.Retry
	if pol == nil {
		pol = singleAttempt
	}
	start := time.Now()
	var (
		page     features.Page
		status   int
		attempts int
	)
	doErr := pol.Do(ctx, "fetch."+target.Host, func() error {
		attempts++
		code, body, err := get(target, ua)
		if len(body) >= MaxSnapshotBytes {
			body, err = body[:MaxSnapshotBytes], nil
		}
		if err != nil {
			return err
		}
		page = features.Page{URL: rawURL, HTML: body}
		status = code
		if code >= 500 {
			return retry.Transient(&retry.StatusError{Code: code})
		}
		return nil
	})
	if doErr != nil {
		var se *retry.StatusError
		if errors.As(doErr, &se) && status != 0 {
			// Retries exhausted on 5xx: surface the final page like any
			// other non-200, per the Snapshot contract.
			doErr = nil
		}
	}
	if doErr != nil {
		err := fmt.Errorf("crawler: fetch %q failed after %d attempts: %w", rawURL, attempts, doErr)
		if f.Observe != nil {
			f.Observe(0, attempts, time.Since(start), err)
		}
		return features.Page{}, 0, err
	}
	if f.Observe != nil {
		f.Observe(status, attempts, time.Since(start), nil)
	}
	return page, status, nil
}

// httpSource is the SnapshotSource over Client: each GET dials Base when
// set, keeping the target's host in the Host header. A transport error
// and a body that breaks off are transient.
func (f *Fetcher) httpSource(ctx context.Context) (SnapshotSource, error) {
	var base *url.URL
	if f.Base != "" {
		var err error
		if base, err = url.Parse(f.Base); err != nil {
			return nil, fmt.Errorf("crawler: bad base %q: %w", f.Base, err)
		}
	}
	client := f.Client
	if client == nil {
		client = defaultFetchClient
	}
	return func(target *url.URL, ua string) (int, string, error) {
		reqURL := target
		if base != nil {
			rewritten := *target
			rewritten.Scheme = base.Scheme
			rewritten.Host = base.Host
			reqURL = &rewritten
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, reqURL.String(), nil)
		if err != nil {
			return 0, "", err
		}
		req.Host = target.Host // original virtual host
		req.Header.Set("User-Agent", ua)
		resp, err := client.Do(req)
		if err != nil {
			return 0, "", retry.Transient(err)
		}
		body, err := io.ReadAll(io.LimitReader(resp.Body, MaxSnapshotBytes))
		resp.Body.Close()
		if err != nil {
			err = retry.Transient(fmt.Errorf("read %q: %w", target, err))
		}
		return resp.StatusCode, string(body), err
	}, nil
}
