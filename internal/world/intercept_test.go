package world

import (
	"testing"

	"freephish/internal/retry"
	"freephish/internal/simclock"
)

// TestWithRetryAddsNoAllocs: the retry slot costs no allocation per call
// over the bare inproc port, so retry-wrapped hot paths allocate exactly
// what the Sim does.
func TestWithRetryAddsNoAllocs(t *testing.T) {
	bare := Inproc(NewSim(1, epoch, simclock.New(epoch)))
	wrapped := WithRetry(bare, &retry.Policy{Sleep: retry.NoSleep})
	const url = "https://paypal-alert.weebly.com/login"
	for _, c := range []struct {
		port string
		call func(w World)
	}{
		{"Intel.Resolve", func(w World) { _, _ = w.Intel.Resolve(url) }},
		{"Oracle.Truth", func(w World) { _, _ = w.Oracle.Truth(url) }},
	} {
		base := testing.AllocsPerRun(200, func() { c.call(bare) })
		got := testing.AllocsPerRun(200, func() { c.call(wrapped) })
		if got != base {
			t.Errorf("%s: retry-wrapped call allocates %v/call, bare %v", c.port, got, base)
		}
	}
}
