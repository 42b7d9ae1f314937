package world

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"

	"freephish/internal/crawler"
	"freephish/internal/fwb"
)

// Inproc returns the in-process adapter set: every port is the Sim
// itself. Stream and Snap are left nil — the caller wires its poller
// (typically reading through Pages) and fetcher (typically reading
// through Snapshots) into those slots, with zero sockets.
func Inproc(s *Sim) World {
	return World{
		Intel:    s,
		Feeds:    s,
		Platform: s,
		Reports:  s,
		Oracle:   s,
	}
}

// webEndpoint is the virtual-host web's chaos endpoint on both backends.
const webEndpoint = "web"

// Snapshots is the inproc fetcher's snapshot source (Sim.Host in a
// study): each page comes straight from the host through fwb.Host.Serve,
// the answer Host.ServeHTTP writes, with no HTTP request and no copy of
// the body. chaos, when non-nil, serves each page under the fault the
// "web" endpoint's middleware would inject into the same GET:
// (*faults.Injector).Get is such a func.
func Snapshots(h *fwb.Host, chaos func(endpoint, host, requestURI string, serve func() (int, string)) (int, string, error)) crawler.SnapshotSource {
	return func(target *url.URL, ua string) (int, string, error) {
		if chaos == nil {
			status, body := h.Serve(target.Host, target.Path, ua)
			return status, body, nil
		}
		return chaos(webEndpoint, target.Host, target.RequestURI(), func() (int, string) {
			return h.Serve(target.Host, target.Path, ua)
		})
	}
}

// HandlerTransport is an http.RoundTripper that dispatches requests to
// in-process handlers keyed on the request's URL host — the same bytes a
// loopback server would produce, without sockets. It lets a real net/http
// client (perfbench's layer replay, the tests that hold Snapshots to the
// HTTP path) run against the simulation with no listeners.
type HandlerTransport struct {
	hosts map[string]http.Handler
	// Default, when set, handles any host without an explicit entry.
	Default http.Handler
}

// NewHandlerTransport returns an empty transport.
func NewHandlerTransport() *HandlerTransport {
	return &HandlerTransport{hosts: make(map[string]http.Handler)}
}

// Handle routes requests for the given URL host to h.
func (t *HandlerTransport) Handle(host string, h http.Handler) {
	t.hosts[host] = h
}

// RoundTrip serves the request with the matching handler. It mirrors two
// behaviors of a real transport so injected faults look the same on both
// backends: a handler panicking with http.ErrAbortHandler becomes a
// transport error (the "connection reset" a net/http client would see),
// and a body shorter than its declared Content-Length fails the read
// with io.ErrUnexpectedEOF instead of silently delivering fewer bytes.
func (t *HandlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	h, ok := t.hosts[req.URL.Host]
	if !ok {
		h = t.Default
	}
	if h == nil {
		return nil, fmt.Errorf("world: no handler for host %q", req.URL.Host)
	}
	w := &inprocWriter{header: make(http.Header)}
	if err := serveAborting(h, w, req); err != nil {
		return nil, err
	}
	if w.code == 0 {
		w.code = http.StatusOK
	}
	resp := &http.Response{
		Status:        strconv.Itoa(w.code) + " " + http.StatusText(w.code),
		StatusCode:    w.code,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        w.header,
		Body:          &w.body,
		ContentLength: int64(w.body.Len()),
		Request:       req,
	}
	if cl := w.header.Get("Content-Length"); cl != "" {
		if n, err := strconv.ParseInt(cl, 10, 64); err == nil && n > resp.ContentLength {
			resp.ContentLength = n
			resp.Body = shortBody{&w.body}
		}
	}
	return resp, nil
}

// serveAborting runs the handler, converting http.ErrAbortHandler panics
// (the standard "drop this connection" signal) into a returned error;
// any other panic propagates.
func serveAborting(h http.Handler, w http.ResponseWriter, req *http.Request) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if r == http.ErrAbortHandler {
				err = fmt.Errorf("world: %s http://%s%s: connection reset", req.Method, req.URL.Host, req.URL.Path)
				return
			}
			panic(r)
		}
	}()
	h.ServeHTTP(w, req)
	return nil
}

// inprocWriter is the http.ResponseWriter a handler serves into. Like a
// server connection it sends the header with the status line: once
// WriteHeader or Write has run, Header returns a detached map, so later
// header changes are dropped as they are on the wire.
type inprocWriter struct {
	header http.Header
	code   int // 0 until the status line is written
	body   inprocBody
}

func (w *inprocWriter) Header() http.Header {
	if w.code != 0 {
		return make(http.Header)
	}
	return w.header
}

func (w *inprocWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}

// Write sends an implicit 200 on first use, sniffing the Content-Type
// when the handler set none, as a server does.
func (w *inprocWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		if _, ok := w.header["Content-Type"]; !ok {
			w.header.Set("Content-Type", http.DetectContentType(b))
		}
		w.code = http.StatusOK
	}
	return w.body.Write(b)
}

// inprocBody is the response body: the bytes the handler wrote, read
// back in order.
type inprocBody struct{ bytes.Buffer }

func (*inprocBody) Close() error { return nil }

// shortBody yields its bytes and then fails with io.ErrUnexpectedEOF —
// what a fixed-length client body does when the peer closes early.
// It hides the buffer's WriteTo, so io.Copy cannot read around the error.
type shortBody struct{ b *inprocBody }

func (s shortBody) Read(p []byte) (int, error) {
	n, err := s.b.Read(p)
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return n, err
}

func (s shortBody) Close() error { return nil }
