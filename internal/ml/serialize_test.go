package ml

import (
	"bytes"
	"strings"
	"testing"
)

// A booster whose one tree splits feature 1 at 0.5 into two leaves, and a
// stack over two features built from it; the table below breaks one part
// of it at a time.
const (
	okBooster   = `{"config":{"Rounds":1,"LearningRate":0.1},"bias":0,"trees":[{"nodes":[{"f":1,"t":0.5,"l":1,"r":2},{"leaf":true,"v":1},{"leaf":true,"v":-1}]}]}`
	okStackJSON = `{"folds":5,"seed":1,"n_features":2,"base":[B,B,B],"meta":M}`
)

func stackPayload(base, meta string) string {
	return strings.NewReplacer("B", base, "M", meta).Replace(okStackJSON)
}

func boosterWithNodes(nodes string) string {
	return `{"config":{},"bias":0,"trees":[{"nodes":` + nodes + `}]}`
}

func TestLoadStackModelRejectsMalformed(t *testing.T) {
	for _, c := range []struct {
		name    string
		payload string
		ok      bool
	}{
		{"valid", stackPayload(okBooster, okBooster), true},
		{"meta splits on a base probability", stackPayload(okBooster, boosterWithNodes(`[{"f":5,"l":1,"r":2},{"leaf":true},{"leaf":true}]`)), true},
		{"self loop", stackPayload(boosterWithNodes(`[{"l":0,"r":0}]`), okBooster), false},
		{"back edge", stackPayload(okBooster, boosterWithNodes(`[{"l":1,"r":2},{"l":0,"r":2},{"leaf":true}]`)), false},
		{"child out of range", stackPayload(boosterWithNodes(`[{"l":1,"r":3},{"leaf":true},{"leaf":true}]`), okBooster), false},
		{"empty tree", stackPayload(boosterWithNodes(`[]`), okBooster), false},
		{"negative feature", stackPayload(boosterWithNodes(`[{"f":-1,"l":1,"r":2},{"leaf":true},{"leaf":true}]`), okBooster), false},
		{"base feature past width", stackPayload(boosterWithNodes(`[{"f":2,"l":1,"r":2},{"leaf":true},{"leaf":true}]`), okBooster), false},
		{"meta feature past width", stackPayload(okBooster, boosterWithNodes(`[{"f":6,"l":1,"r":2},{"leaf":true},{"leaf":true}]`)), false},
		{"null base model", `{"n_features":2,"base":[null,` + okBooster + `,` + okBooster + `],"meta":` + okBooster + `}`, false},
		{"two base models", `{"n_features":2,"base":[` + okBooster + `,` + okBooster + `],"meta":` + okBooster + `}`, false},
		{"no features", strings.Replace(stackPayload(okBooster, okBooster), `"n_features":2`, `"n_features":0`, 1), false},
		{"too many features", strings.Replace(stackPayload(okBooster, okBooster), `"n_features":2`, `"n_features":99999999`, 1), false},
	} {
		m, err := LoadStackModel(strings.NewReader(c.payload))
		if c.ok != (err == nil) {
			t.Errorf("%s: err = %v, want accepted=%v", c.name, err, c.ok)
			continue
		}
		if err == nil {
			m.PredictProba(make([]float64, m.NumFeatures()))
		}
	}
}

// FuzzLoadStackModel: whatever the loader accepts must predict a zero
// vector of its declared width, without panicking or looping.
func FuzzLoadStackModel(f *testing.F) {
	s := NewStackModel(5)
	if err := s.Fit(tiedDataset(60, 5)); err != nil {
		f.Fatal(err)
	}
	// Two trees per booster keep the seed small enough to mutate and
	// minimize quickly.
	for _, gb := range append(s.base, s.meta) {
		gb.trees = gb.trees[:2]
	}
	var fitted bytes.Buffer
	if err := s.Save(&fitted); err != nil {
		f.Fatal(err)
	}
	f.Add(fitted.Bytes())
	f.Add([]byte(stackPayload(okBooster, okBooster)))
	f.Add([]byte(stackPayload(boosterWithNodes(`[{"l":0,"r":0}]`), okBooster)))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := LoadStackModel(bytes.NewReader(data))
		if err != nil {
			return
		}
		m.PredictProba(make([]float64, m.NumFeatures()))
	})
}
