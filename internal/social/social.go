// Package social simulates the two social networks the paper streams from:
// Twitter (via the streaming/Academic API) and Facebook (via CrowdTangle).
// Each Network holds a timeline of posts, exposes the JSON-over-HTTP API
// the FreePhish streaming module polls every 10 minutes, and implements the
// platform's moderation response to phishing links (§5.4, Figure 9).
package social

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"freephish/internal/simclock"
	"freephish/internal/threat"
)

// Post is one social media post.
type Post struct {
	ID       string          `json:"id"`
	Platform threat.Platform `json:"platform"`
	Text     string          `json:"text"`
	At       time.Time       `json:"created_at"`

	mu        sync.Mutex
	removed   bool
	removedAt time.Time
}

// Remove deletes the post at t (first removal wins).
func (p *Post) Remove(t time.Time) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.removed {
		return
	}
	p.removed = true
	p.removedAt = t
}

// Removed reports whether (and when) the post was deleted.
func (p *Post) Removed() (bool, time.Time) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.removed, p.removedAt
}

// VisibleAt reports whether the post is still up at time t.
func (p *Post) VisibleAt(t time.Time) bool {
	rm, at := p.Removed()
	return !rm || t.Before(at)
}

// Network is one social platform's timeline. Construct with NewNetwork.
// Network is safe for concurrent use.
type Network struct {
	platform threat.Platform
	now      func() time.Time

	mu    sync.RWMutex
	posts []*Post
	byID  map[string]*Post
	seq   int
}

// NewNetwork returns a Network for the platform; now supplies virtual time
// for the HTTP API's visibility checks.
func NewNetwork(platform threat.Platform, now func() time.Time) *Network {
	return &Network{platform: platform, now: now, byID: make(map[string]*Post)}
}

// Platform reports which network this is.
func (n *Network) Platform() threat.Platform { return n.platform }

// Publish appends a post to the timeline under the next sequential ID.
func (n *Network) Publish(text string, at time.Time) *Post {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.seq++
	return n.publishLocked(fmt.Sprintf("%s-%d", n.platform, n.seq), text, at)
}

// PublishID appends a post under a caller-chosen ID. The sharded posting
// schedule derives IDs from the event ordinal so the same post carries the
// same ID no matter which shard publishes it; callers own ID uniqueness.
func (n *Network) PublishID(id, text string, at time.Time) *Post {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.publishLocked(id, text, at)
}

// publishLocked appends a post; caller holds n.mu.
func (n *Network) publishLocked(id, text string, at time.Time) *Post {
	p := &Post{
		ID:       id,
		Platform: n.platform,
		Text:     text,
		At:       at,
	}
	n.posts = append(n.posts, p)
	n.byID[p.ID] = p
	return p
}

// Since returns posts created at or after t that are still visible — the
// streaming-API view.
func (n *Network) Since(t time.Time) []*Post {
	n.mu.RLock()
	defer n.mu.RUnlock()
	now := n.now()
	var out []*Post
	for i := len(n.posts) - 1; i >= 0; i-- {
		p := n.posts[i]
		if p.At.Before(t) {
			break // timeline is append-ordered
		}
		if p.VisibleAt(now) {
			out = append(out, p)
		}
	}
	// Reverse into chronological order.
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// Lookup finds a post by ID.
func (n *Network) Lookup(id string) *Post {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.byID[id]
}

// Len reports the total number of posts ever published.
func (n *Network) Len() int {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return len(n.posts)
}

// MaxPageSize caps one streaming-API response, as real platform APIs do;
// callers page through bursts with the offset parameter.
const MaxPageSize = 200

// Page returns one streaming-API page: the posts Since(since) returns,
// from offset on, at most MaxPageSize of them, and whether another page
// follows. An offset past the end yields an empty last page. GET /posts
// serves exactly this page.
func (n *Network) Page(since time.Time, offset int) (page []*Post, more bool) {
	posts := n.Since(since)
	if offset > len(posts) {
		offset = len(posts)
	}
	page = posts[offset:]
	if len(page) > MaxPageSize {
		return page[:MaxPageSize], true
	}
	return page, false
}

// removeRequest is the moderation endpoint's body; a zero At means "now".
type removeRequest struct {
	At time.Time `json:"at"`
}

// StatusResponse is the /posts/{id}/status answer — post existence and
// removal state, visible even for removed posts (unlike GET /posts/{id},
// which models the public 404).
type StatusResponse struct {
	Exists    bool      `json:"exists"`
	Removed   bool      `json:"removed"`
	RemovedAt time.Time `json:"removed_at"`
}

// ServeHTTP exposes the platform API:
//
//	GET  /posts?since=RFC3339[&offset=N] → JSON page of visible posts (at
//	      most MaxPageSize; header X-More: 1 signals another page)
//	GET  /posts/{id}                     → single post, 404 when removed
//	      (the check the analysis module performs every 10 minutes)
//	POST /posts/{id}/remove {"at": t}    → moderation removal (zero or
//	      missing time means now); 404 for an unknown post, 204 on success
//	GET  /posts/{id}/status              → StatusResponse, answering even
//	      for removed posts (the study's back-channel status check)
func (n *Network) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.URL.Path == "/posts":
		q := r.URL.Query()
		since := time.Time{}
		if s := q.Get("since"); s != "" {
			t, err := time.Parse(time.RFC3339, s)
			if err != nil {
				http.Error(w, "bad since parameter", http.StatusBadRequest)
				return
			}
			since = t
		}
		offset := 0
		if o := q.Get("offset"); o != "" {
			v, err := strconv.Atoi(o)
			if err != nil || v < 0 {
				http.Error(w, "bad offset parameter", http.StatusBadRequest)
				return
			}
			offset = v
		}
		page, more := n.Page(since, offset)
		if more {
			w.Header().Set("X-More", "1")
		}
		w.Header().Set("Content-Type", "application/json")
		if err := json.NewEncoder(w).Encode(page); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	case r.Method == http.MethodPost && strings.HasPrefix(r.URL.Path, "/posts/") && strings.HasSuffix(r.URL.Path, "/remove"):
		id := strings.TrimSuffix(strings.TrimPrefix(r.URL.Path, "/posts/"), "/remove")
		p := n.Lookup(id)
		if p == nil {
			http.NotFound(w, r)
			return
		}
		var req removeRequest
		if r.Body != nil {
			// An empty or absent body means "remove now".
			_ = json.NewDecoder(r.Body).Decode(&req)
		}
		at := req.At
		if at.IsZero() {
			at = n.now()
		}
		p.Remove(at)
		w.WriteHeader(http.StatusNoContent)
	case r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/posts/") && strings.HasSuffix(r.URL.Path, "/status"):
		id := strings.TrimSuffix(strings.TrimPrefix(r.URL.Path, "/posts/"), "/status")
		var resp StatusResponse
		if p := n.Lookup(id); p != nil {
			resp.Exists = true
			resp.Removed, resp.RemovedAt = p.Removed()
		}
		w.Header().Set("Content-Type", "application/json")
		if err := json.NewEncoder(w).Encode(resp); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	case strings.HasPrefix(r.URL.Path, "/posts/"):
		id := strings.TrimPrefix(r.URL.Path, "/posts/")
		p := n.Lookup(id)
		if p == nil || !p.VisibleAt(n.now()) {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if err := json.NewEncoder(w).Encode(p); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	default:
		http.NotFound(w, r)
	}
}

// Moderation is a platform's phishing-response model. Coverage and medians
// are calibrated against §5.4/Figure 9: Twitter removes ~32% of self-hosted
// phishing within 3 hours and >70% within 16, Facebook 47%@3h and ~52%@16h,
// while both leave ~3/4 of FWB attacks up after a week.
type Moderation struct {
	Platform   threat.Platform
	SelfCov    float64
	SelfMedian time.Duration
	FWBCov     float64
	FWBMedian  time.Duration
	// EvasiveFactor scales coverage down for §5.5 credential-less variants.
	EvasiveFactor float64
	Sigma         float64
}

// StandardModeration returns the calibrated Twitter and Facebook models.
func StandardModeration() map[threat.Platform]*Moderation {
	return map[threat.Platform]*Moderation{
		threat.Twitter: {
			Platform: threat.Twitter,
			SelfCov:  0.78, SelfMedian: 3 * time.Hour,
			FWBCov: 0.27, FWBMedian: 9*time.Hour + 30*time.Minute,
			EvasiveFactor: 0.6, Sigma: 1.3,
		},
		threat.Facebook: {
			Platform: threat.Facebook,
			SelfCov:  0.62, SelfMedian: 5 * time.Hour,
			FWBCov: 0.21, FWBMedian: 12 * time.Hour,
			EvasiveFactor: 0.6, Sigma: 1.3,
		},
	}
}

// Assess decides if and when the platform removes the post sharing the
// target.
func (m *Moderation) Assess(t *threat.Target, rng *simclock.RNG) (removed bool, at time.Time) {
	cov, median := m.SelfCov, m.SelfMedian
	if t.IsFWB() {
		cov, median = m.FWBCov, m.FWBMedian
	}
	if t.Evasive() {
		cov *= m.EvasiveFactor
		median = median * 3 / 2
	}
	if !rng.Bool(cov) {
		return false, time.Time{}
	}
	d := rng.LogNormal(float64(median), m.Sigma)
	return true, t.SharedAt.Add(time.Duration(d))
}
