package core

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"freephish/internal/state"
)

// Drift tests for the one Config → spec mapping. A knob added to Config
// but not carried by studySpec/configFromSpec would make every sharded
// run — local or remote — silently run a different study; a spec field
// left out of the fingerprint would let a checkpoint resume into a study
// it was not cut from.

// deploymentOnly lists the Config fields that deliberately do not travel
// through the spec: observability hooks, the coordinator's own dispatch
// and checkpoint-file settings, and Shards, which travels as the shard
// position instead.
var deploymentOnly = map[string]bool{
	"Registry":       true,
	"Progress":       true,
	"Logger":         true,
	"LogEvery":       true,
	"ShardWorkers":   true,
	"CheckpointPath": true,
	"Resume":         true,
	"Shards":         true,
}

// fingerprintExempt lists the spec fields the study is byte-identical
// across, which the fingerprint therefore zeroes.
var fingerprintExempt = map[string]bool{
	"Workers":           true,
	"QueueDepth":        true,
	"SnapshotCacheSize": true,
	"Backend":           true,
	"JournalRing":       true,
	"CheckpointEvery":   true,
	"Fingerprint":       true,
}

// setNonZero gives v a non-zero value, filling pointed-to structs field by
// field. It fails the test on a kind it does not know, so a field of a new
// kind cannot slip past the drift tests unfilled.
func setNonZero(t *testing.T, name string, v reflect.Value) {
	t.Helper()
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int64:
		v.SetInt(3)
	case reflect.Float64:
		v.SetFloat(0.25)
	case reflect.String:
		v.SetString(BackendHTTP)
	case reflect.Pointer:
		p := reflect.New(v.Type().Elem())
		setNonZero(t, name, p.Elem())
		v.Set(p)
	case reflect.Slice:
		s := reflect.MakeSlice(v.Type(), 1, 1)
		setNonZero(t, name, s.Index(0))
		v.Set(s)
	case reflect.Struct:
		if v.Type() == reflect.TypeOf(time.Time{}) {
			v.Set(reflect.ValueOf(time.Date(2022, 11, 1, 0, 0, 0, 0, time.UTC)))
			return
		}
		for i := 0; i < v.NumField(); i++ {
			if v.Field(i).CanSet() {
				setNonZero(t, name+"."+v.Type().Field(i).Name, v.Field(i))
			}
		}
	default:
		t.Fatalf("%s: no non-zero value for kind %s; extend setNonZero", name, v.Kind())
	}
}

// TestConfigSpecRoundTrip requires every Config field to survive
// Config → studySpec → configFromSpec with its (non-zero) value intact,
// or to be on the deployment-only allowlist.
func TestConfigSpecRoundTrip(t *testing.T) {
	ct := reflect.TypeOf(Config{})
	for name := range deploymentOnly {
		if _, ok := ct.FieldByName(name); !ok {
			t.Errorf("allowlist names Config.%s, which no longer exists", name)
		}
	}
	var cfg Config
	want := reflect.ValueOf(&cfg).Elem()
	for i := 0; i < ct.NumField(); i++ {
		if name := ct.Field(i).Name; !deploymentOnly[name] {
			setNonZero(t, name, want.Field(i))
		}
	}
	got := reflect.ValueOf(configFromSpec(studySpec(cfg)))
	for i := 0; i < ct.NumField(); i++ {
		name := ct.Field(i).Name
		if deploymentOnly[name] {
			continue
		}
		if g, w := got.Field(i).Interface(), want.Field(i).Interface(); got.Field(i).IsZero() || !reflect.DeepEqual(g, w) {
			t.Errorf("Config.%s does not survive Config → spec → configFromSpec (%v → %v): carry it in state.ShardSpec or allowlist it as deployment-only", name, w, g)
		}
	}
}

// TestSpecFingerprintFields requires that setting any spec field changes
// the fingerprint unless the field is deployment-only, in which case it
// must not.
func TestSpecFingerprintFields(t *testing.T) {
	st := reflect.TypeOf(state.ShardSpec{})
	for name := range fingerprintExempt {
		if _, ok := st.FieldByName(name); !ok {
			t.Errorf("exemption names ShardSpec.%s, which no longer exists", name)
		}
	}
	base := specFingerprint(state.ShardSpec{})
	if !strings.HasPrefix(base, fingerprintVersion+" {") {
		t.Fatalf("fingerprint %q lacks the %s prefix", base, fingerprintVersion)
	}
	for i := 0; i < st.NumField(); i++ {
		name := st.Field(i).Name
		var sp state.ShardSpec
		setNonZero(t, name, reflect.ValueOf(&sp).Elem().Field(i))
		changed := specFingerprint(sp) != base
		switch {
		case fingerprintExempt[name] && changed:
			t.Errorf("ShardSpec.%s is deployment-only but changes the fingerprint", name)
		case !fingerprintExempt[name] && !changed:
			t.Errorf("ShardSpec.%s does not change the fingerprint: a checkpoint would resume across it", name)
		}
	}
}
