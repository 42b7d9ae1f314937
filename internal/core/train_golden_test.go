package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"freephish/internal/baselines"
)

// goldenTrained are the SHA-256 prefixes of the saved FreePhish and base
// models that Train fits (through the test cache, which calls
// trainModels) on the benchmark's corpus shape (93 pages per class at scale
// 0.02), per seed. A change to fitting or to the corpus that claims
// byte-identity must leave them as they are.
var goldenTrained = map[string]string{
	"freephish/1": "f2f08fffd1ac840c",
	"base/1":      "93cf31ae1e06a9d6",
	"freephish/7": "e3f0b2dea5460a48",
	"base/7":      "73f2551e8908c2b5",
}

func TestTrainedModelsGolden(t *testing.T) {
	for _, seed := range []int64{1, 7} {
		cfg := smallConfig(seed)
		cfg.TrainPerClass = 4675 // int(4675 × 0.02) = 93 per class
		f := newCached(cfg)
		if err := f.Train(); err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			name  string
			model *baselines.StackDetector
		}{{"freephish", f.Model}, {"base", f.BaseModel}} {
			var buf bytes.Buffer
			if err := c.model.Save(&buf); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(buf.Bytes())
			key := fmt.Sprintf("%s/%d", c.name, seed)
			if got, want := hex.EncodeToString(sum[:8]), goldenTrained[key]; got != want {
				t.Errorf("%s: saved model hash %s, want %s", key, got, want)
			}
		}
	}
}
