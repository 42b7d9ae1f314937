package world

import (
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"freephish/internal/retry"
	"freephish/internal/simclock"
	"freephish/internal/threat"
)

// TestDefaultClientHasTimeout guards the regression where nil-client
// adapters fell back to http.DefaultClient, whose missing timeout let
// one stalled endpoint hang the study forever.
func TestDefaultClientHasTimeout(t *testing.T) {
	if defaultClient.Timeout <= 0 {
		t.Fatal("world fallback client must carry a timeout")
	}
	if http.DefaultClient.Timeout != 0 {
		t.Fatal("test premise broken: http.DefaultClient grew a timeout")
	}
}

// TestStalledServerFailsInsteadOfHanging: an endpoint that accepts the
// connection and then never answers must fail the adapter call once the
// client timeout elapses — not block it indefinitely.
func TestStalledServerFailsInsteadOfHanging(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			// Hold the connection open, say nothing.
			defer conn.Close()
		}
	}()

	w := OverHTTP(Endpoints{
		API:    "http://" + ln.Addr().String(),
		Client: &http.Client{Timeout: 200 * time.Millisecond},
	})
	done := make(chan error, 1)
	go func() {
		_, err := w.Intel.Resolve("https://x.weebly.com/")
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("stalled server should produce an error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("adapter call hung on a stalled server")
	}
}

// TestAdapterRetries5xxUnderPolicy: with Endpoints.Retry wired, a 5xx
// burst on the SimAPI is absorbed and the call returns the real answer.
func TestAdapterRetries5xxUnderPolicy(t *testing.T) {
	sim := NewSim(1, epoch, simclock.New(epoch))
	api := NewSimAPI(sim)
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			http.Error(w, "unavailable", http.StatusServiceUnavailable)
			return
		}
		api.ServeHTTP(w, r)
	}))
	defer srv.Close()

	var retried int
	pol := &retry.Policy{
		MaxAttempts: 4,
		Sleep:       retry.NoSleep,
		OnRetry:     func(key string, attempt int, d time.Duration, err error) { retried++ },
	}
	w := OverHTTP(Endpoints{API: srv.URL, Retry: pol})
	info, err := w.Intel.Resolve("https://x.weebly.com/")
	if err != nil {
		t.Fatalf("Resolve through a 5xx burst: %v", err)
	}
	if info.Hosted {
		t.Fatalf("unknown URL resolved as hosted: %+v", info)
	}
	if retried != 2 {
		t.Fatalf("retried = %d, want 2", retried)
	}
}

// TestAdapterNoRetryWithoutPolicy: a nil policy keeps the old
// single-attempt behavior — the 5xx surfaces as an error.
func TestAdapterNoRetryWithoutPolicy(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "unavailable", http.StatusServiceUnavailable)
	}))
	defer srv.Close()
	w := OverHTTP(Endpoints{API: srv.URL})
	if _, err := w.Intel.Resolve("https://x.weebly.com/"); err == nil {
		t.Fatal("5xx without a retry policy should surface as an error")
	}
	if calls.Load() != 1 {
		t.Fatalf("calls = %d, want exactly 1", calls.Load())
	}
}

// TestHandlerTransportAbortBecomesTransportError: a handler panicking
// with http.ErrAbortHandler (how the fault injector models a connection
// reset) must surface as a client-side transport error, not crash the
// process or deliver a half-response.
func TestHandlerTransportAbortBecomesTransportError(t *testing.T) {
	rt := NewHandlerTransport()
	rt.Handle("a.inproc", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic(http.ErrAbortHandler)
	}))
	_, err := (&http.Client{Transport: rt}).Get("http://a.inproc/x")
	if err == nil {
		t.Fatal("aborted handler should be a transport error")
	}
}

// TestHandlerTransportShortBodyFailsRead: a response shorter than its
// declared Content-Length must fail the body read with unexpected EOF —
// the same thing a real net/http client reports — instead of silently
// delivering fewer bytes.
func TestHandlerTransportShortBodyFailsRead(t *testing.T) {
	rt := NewHandlerTransport()
	rt.Handle("a.inproc", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", "100")
		w.Write([]byte("only ten b"))
	}))
	for name, read := range map[string]func(io.Reader) error{
		"ReadAll": func(r io.Reader) error { _, err := io.ReadAll(r); return err },
		"Copy":    func(r io.Reader) error { _, err := io.Copy(io.Discard, r); return err },
	} {
		resp, err := (&http.Client{Transport: rt}).Get("http://a.inproc/x")
		if err != nil {
			t.Fatal(err)
		}
		err = read(resp.Body)
		resp.Body.Close()
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("short-body %s error = %v, want io.ErrUnexpectedEOF", name, err)
		}
	}
}

// TestWithRetryPassesApplicationErrors: the decorator retries only
// transient failures; a domain error (unknown platform) comes back on
// the first attempt, unwrapped.
func TestWithRetryPassesApplicationErrors(t *testing.T) {
	attempts := 0
	pol := &retry.Policy{
		MaxAttempts: 4,
		Sleep:       retry.NoSleep,
		OnRetry:     func(string, int, time.Duration, error) { attempts++ },
	}
	w := WithRetry(OverHTTP(Endpoints{}), pol)
	if _, err := w.Platform.LookupPost(threat.Platform("nope"), "id"); err == nil {
		t.Fatal("unknown platform should error")
	}
	if attempts != 0 {
		t.Fatalf("application error was retried %d times", attempts)
	}
}
