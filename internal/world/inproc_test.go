package world

import (
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"freephish/internal/social"
)

// TestHandlerTransportMatchesServer: a handler answers the same status,
// X-More header and body through HandlerTransport as through a real
// loopback server, including a header set after WriteHeader, which the
// wire drops.
func TestHandlerTransportMatchesServer(t *testing.T) {
	cases := map[string]http.HandlerFunc{
		"implicit 200": func(w http.ResponseWriter, r *http.Request) {
			io.WriteString(w, "<html>ok</html>")
		},
		"error 400": func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, "bad since parameter", http.StatusBadRequest)
		},
		"error 503": func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, "unavailable", http.StatusServiceUnavailable)
		},
		"header before status": func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("X-More", "1")
			io.WriteString(w, "[]")
		},
		"header after status": func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(http.StatusOK)
			w.Header().Set("X-More", "1")
			io.WriteString(w, "[]")
		},
		"header after body": func(w http.ResponseWriter, r *http.Request) {
			io.WriteString(w, "[]")
			w.Header().Set("X-More", "1")
		},
		"empty posts page": social.NewNetwork("twitter", func() time.Time { return epoch }).ServeHTTP,
	}
	for name, h := range cases {
		t.Run(name, func(t *testing.T) {
			srv := httptest.NewServer(h)
			defer srv.Close()
			wantStatus, wantMore, wantBody := get(t, srv.Client(), srv.URL+"/posts?since=2022-11-01T00:00:00Z")

			rt := NewHandlerTransport()
			rt.Handle("p.inproc", h)
			status, more, body := get(t, &http.Client{Transport: rt}, "http://p.inproc/posts?since=2022-11-01T00:00:00Z")
			if status != wantStatus || more != wantMore || body != wantBody {
				t.Fatalf("inproc (%d, X-More %q, %q), server (%d, X-More %q, %q)",
					status, more, body, wantStatus, wantMore, wantBody)
			}
		})
	}
}

func get(t *testing.T, c *http.Client, u string) (status int, more, body string) {
	t.Helper()
	resp, err := c.Get(u)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("X-More"), string(b)
}
