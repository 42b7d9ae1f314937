package core

import (
	"testing"
	"time"
)

// The §4.4 active monitor re-probes every flagged URL on a cadence; once a
// page stops changing, those probes must reuse the cached parse instead of
// re-parsing a byte-identical body. This is the integration-level check of
// the crawler.SnapshotCache wiring (the unit tests live in crawler).
func TestMonitorReprobesHitSnapshotCache(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 9
	cfg.Scale = 0.003
	cfg.TrainPerClass = 80
	cfg.MonitorInterval = 12 * time.Hour
	f := newCached(cfg)
	if _, err := f.Run(); err != nil {
		t.Fatal(err)
	}
	t.Logf("cache: hits=%d misses=%d entries=%d", f.snapCache.Hits(), f.snapCache.Misses(), f.snapCache.Len())
	if f.snapCache.Hits() == 0 {
		t.Fatal("monitor re-probes produced no snapshot-cache hits")
	}
}
