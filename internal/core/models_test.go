package core

import "sync"

// testModels is the test binary's one model cache: every framework
// newCached builds and every runner newTestRunner returns trains through
// it, so the suite trains each training input once. Tests that call New
// and Run directly train with trainModels itself, as a user's run does.
var testModels struct {
	sync.Mutex
	m map[trainKey]*trainedModels
}

// cachedModels returns the models of key, training them on first use.
func cachedModels(key trainKey, workers int) (*trainedModels, error) {
	testModels.Lock()
	defer testModels.Unlock()
	if m, ok := testModels.m[key]; ok {
		return m, nil
	}
	m, err := trainModels(key, workers)
	if err != nil {
		return nil, err
	}
	if testModels.m == nil {
		testModels.m = make(map[trainKey]*trainedModels)
	}
	testModels.m[key] = m
	return m, nil
}

// newCached is New with training served from testModels: Run trains
// lazily as ever, but each training input is fitted once per binary.
func newCached(cfg Config) *FreePhish {
	f := New(cfg)
	f.train = cachedModels
	return f
}

// newTestRunner is a SpecRunner that fills its cache from testModels.
func newTestRunner() *SpecRunner {
	r := NewSpecRunner()
	r.train = cachedModels
	return r
}
