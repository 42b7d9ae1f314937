package core

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"freephish/internal/faults"
	"freephish/internal/shard"
	"freephish/internal/shardrpc"
	"freephish/internal/state"
)

// Drift tests for the one declaration of the study knobs. A knob
// declared on Config outside the embedded state.ShardSpec would never
// reach a shard — local or remote — so every sharded run would silently
// run a different study; a spec field left out of the fingerprint would
// let a checkpoint resume into a study it was not cut from.

// deploymentOnly lists the fields Config declares beside the embedded
// spec, which deliberately do not travel: observability hooks and the
// coordinator's own dispatch and checkpoint-file settings.
var deploymentOnly = map[string]bool{
	"Registry":       true,
	"Progress":       true,
	"Logger":         true,
	"ShardWorkers":   true,
	"CheckpointPath": true,
	"Resume":         true,
}

// fingerprintExempt lists the spec fields the study is byte-identical
// across, which the fingerprint therefore zeroes.
var fingerprintExempt = map[string]bool{
	"Workers":         true,
	"QueueDepth":      true,
	"Backend":         true,
	"CheckpointEvery": true,
	"Fingerprint":     true,
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

// TestConfigSpecRoundTrip requires every field Config declares to be
// the embedded spec or on the deployment-only allowlist, and every spec
// field to survive the wire — JSON encode and decode — with its
// (non-zero) value intact, so a shard child rebuilt from a dispatched
// spec holds every knob its coordinator's Config held.
func TestConfigSpecRoundTrip(t *testing.T) {
	ct := reflect.TypeOf(Config{})
	for name := range deploymentOnly {
		if _, ok := ct.FieldByName(name); !ok {
			t.Errorf("allowlist names Config.%s, which no longer exists", name)
		}
	}
	specType := reflect.TypeOf(state.ShardSpec{})
	for i := 0; i < ct.NumField(); i++ {
		f := ct.Field(i)
		if f.Anonymous && f.Type == specType {
			continue
		}
		if !deploymentOnly[f.Name] {
			t.Errorf("Config.%s is declared outside the embedded state.ShardSpec: declare it on the spec so it travels, or allowlist it as deployment-only", f.Name)
		}
	}
	if f, ok := ct.FieldByName("ShardSpec"); !ok || !f.Anonymous || f.Type != specType {
		t.Fatal("Config does not embed state.ShardSpec")
	}

	var want state.ShardSpec
	wv := reflect.ValueOf(&want).Elem()
	for i := 0; i < specType.NumField(); i++ {
		setNonZero(t, specType.Field(i).Name, wv.Field(i))
	}
	b, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	var got state.ShardSpec
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	gv := reflect.ValueOf(got)
	for i := 0; i < specType.NumField(); i++ {
		if g, w := gv.Field(i).Interface(), wv.Field(i).Interface(); gv.Field(i).IsZero() || !reflect.DeepEqual(g, w) {
			t.Errorf("ShardSpec.%s does not survive the wire (%v → %v): give it a JSON key", specType.Field(i).Name, w, g)
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

// TestSpecBytesPinned pins the wire JSON and the fingerprint of a spec
// built from a Config with every knob that travels set, so a refactor of
// the Config → spec mapping cannot move either byte stream unnoticed.
func TestSpecBytesPinned(t *testing.T) {
	prof, err := faults.ParseProfile("latency=0.1,latency-max=5ms,5xx=0.2,reset=0.05,truncate=0.02,malform=0.03,dnsfail=0.04,skew=0.1,skew-max=30m,burst=2,blackout=web:24h:6h")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{ShardSpec: state.ShardSpec{
		Seed: 7, Epoch: time.Date(2022, 11, 1, 0, 0, 0, 0, time.UTC), Duration: 30 * 24 * time.Hour,
		FWBTwitter: 100, FWBFacebook: 60, SelfTwitter: 90, SelfFacebook: 50,
		BenignPerPhish: 0.5, Scale: 0.02, PollInterval: 10 * time.Minute,
		TrainPerClass: 120, GrowthExponent: 1.6, MonitorInterval: 6 * time.Hour,
		ReshareRate: 0.4, PollQuota: 8, PollQuotaRate: 0.01,
		Workers: 4, QueueDepth: 16, Backend: BackendHTTP, Faults: prof, Journal: true,
		CascadeOn: true, CascadeBenignBelow: 0.1, CascadePhishAbove: 0.9,
		Shards:          4,
		CheckpointEvery: 36,
	}}
	sp := New(cfg).shardSpec(2, cfg.CheckpointEvery)
	b, err := json.Marshal(sp)
	if err != nil {
		t.Fatal(err)
	}
	const wantJSON = `{"seed":7,"epoch":"2022-11-01T00:00:00Z","duration":2592000000000000,"fwb_twitter":100,"fwb_facebook":60,"self_twitter":90,"self_facebook":50,"benign_per_phish":0.5,"scale":0.02,"poll_interval":600000000000,"train_per_class":120,"growth_exponent":1.6,"monitor_interval":21600000000000,"reshare_rate":0.4,"poll_quota":8,"poll_quota_rate":0.01,"workers":4,"queue_depth":16,"backend":"http","faults":{"LatencyP":0.1,"LatencyMax":5000000,"ServerErrP":0.2,"ResetP":0.05,"TruncateP":0.02,"MalformP":0.03,"SkewP":0.1,"SkewMax":1800000000000,"DNSFailP":0.04,"MaxConsecutive":2,"Blackouts":[{"Endpoint":"web","Start":86400000000000,"Length":21600000000000}]},"journal":true,"cascade_on":true,"cascade_benign_below":0.1,"cascade_phish_above":0.9,"shard":2,"shards":4,"checkpoint_every":36,"fingerprint":"v2 {\"seed\":7,\"epoch\":\"2022-11-01T00:00:00Z\",\"duration\":2592000000000000,\"fwb_twitter\":100,\"fwb_facebook\":60,\"self_twitter\":90,\"self_facebook\":50,\"benign_per_phish\":0.5,\"scale\":0.02,\"poll_interval\":600000000000,\"train_per_class\":120,\"growth_exponent\":1.6,\"monitor_interval\":21600000000000,\"reshare_rate\":0.4,\"poll_quota\":8,\"poll_quota_rate\":0.01,\"faults\":{\"LatencyP\":0.1,\"LatencyMax\":5000000,\"ServerErrP\":0.2,\"ResetP\":0.05,\"TruncateP\":0.02,\"MalformP\":0.03,\"SkewP\":0.1,\"SkewMax\":1800000000000,\"DNSFailP\":0.04,\"MaxConsecutive\":2,\"Blackouts\":[{\"Endpoint\":\"web\",\"Start\":86400000000000,\"Length\":21600000000000}]},\"journal\":true,\"cascade_on\":true,\"cascade_benign_below\":0.1,\"cascade_phish_above\":0.9,\"shard\":2,\"shards\":4}"}`
	const wantFingerprint = `v2 {"seed":7,"epoch":"2022-11-01T00:00:00Z","duration":2592000000000000,"fwb_twitter":100,"fwb_facebook":60,"self_twitter":90,"self_facebook":50,"benign_per_phish":0.5,"scale":0.02,"poll_interval":600000000000,"train_per_class":120,"growth_exponent":1.6,"monitor_interval":21600000000000,"reshare_rate":0.4,"poll_quota":8,"poll_quota_rate":0.01,"faults":{"LatencyP":0.1,"LatencyMax":5000000,"ServerErrP":0.2,"ResetP":0.05,"TruncateP":0.02,"MalformP":0.03,"SkewP":0.1,"SkewMax":1800000000000,"DNSFailP":0.04,"MaxConsecutive":2,"Blackouts":[{"Endpoint":"web","Start":86400000000000,"Length":21600000000000}]},"journal":true,"cascade_on":true,"cascade_benign_below":0.1,"cascade_phish_above":0.9,"shard":2,"shards":4}`
	if string(b) != wantJSON {
		t.Errorf("spec JSON:\n  got  %s\n  want %s", b, wantJSON)
	}
	if sp.Fingerprint != wantFingerprint {
		t.Errorf("spec fingerprint:\n  got  %s\n  want %s", sp.Fingerprint, wantFingerprint)
	}
}

// legacySpecTransport rewrites each dispatched spec as a coordinator did
// while ShardSpec still carried snapshot_cache_size: with that key set.
type legacySpecTransport struct{ inner http.RoundTripper }

func (lt legacySpecTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	body, err := io.ReadAll(req.Body)
	if err != nil {
		return nil, err
	}
	body = withRetiredCacheKey(body)
	req = req.Clone(req.Context())
	req.Body, req.ContentLength = io.NopCloser(bytes.NewReader(body)), int64(len(body))
	return lt.inner.RoundTrip(req)
}

func withRetiredCacheKey(spec []byte) []byte {
	return append([]byte(`{"snapshot_cache_size":2048,`), bytes.TrimPrefix(spec, []byte("{"))...)
}

// TestRetiredSnapshotCacheSizeDecodes pins compatibility with specs and
// adoption checkpoints written while ShardSpec still carried
// snapshot_cache_size: the key is ignored on decode, the fingerprint is
// the one a spec without it gets, and a worker runs the spec — from
// ordinal zero and resumed from one of its own cuts — to one snapshot.
func TestRetiredSnapshotCacheSizeDecodes(t *testing.T) {
	cfg := resumeSweepConfig(1, BackendInproc)
	cfg.Duration = 4 * 24 * time.Hour
	cfg.MonitorInterval, cfg.Faults, cfg.Journal = 0, nil, false
	cfg.CheckpointEvery = 1
	sp := cfg.ShardSpec
	sp.Shard, sp.Shards = 0, 1
	sp.Fingerprint = specFingerprint(sp)

	b, err := json.Marshal(sp)
	if err != nil {
		t.Fatal(err)
	}
	var decoded state.ShardSpec
	if err := json.Unmarshal(withRetiredCacheKey(b), &decoded); err != nil {
		t.Fatalf("legacy spec does not decode: %v", err)
	}
	if !reflect.DeepEqual(decoded, sp) {
		t.Fatalf("legacy spec decodes to %+v, want %+v", decoded, sp)
	}
	if got := specFingerprint(decoded); got != sp.Fingerprint {
		t.Fatalf("legacy spec fingerprint:\n  got  %s\n  want %s", got, sp.Fingerprint)
	}

	// Through the worker's wire stack, which refuses a spec whose
	// fingerprint its rebuilt configuration does not reproduce.
	srv := httptest.NewServer(&shardrpc.Server{Runner: newTestRunner().Port()})
	defer srv.Close()
	client := shardrpc.NewClient(srv.URL)
	client.HTTPClient.Transport = legacySpecTransport{inner: client.HTTPClient.Transport}
	var cuts [][]byte
	full, err := client.Run(context.Background(), shard.Spec{ShardSpec: sp}, func(data []byte, _ time.Time) error {
		cuts = append(cuts, data)
		return nil
	})
	if err != nil {
		t.Fatalf("legacy spec: %v", err)
	}
	if len(cuts) < 2 || len(full.Records) == 0 {
		t.Fatalf("legacy spec cut %d checkpoints and admitted %d records; the test is vacuous", len(cuts), len(full.Records))
	}
	resumed, err := client.Run(context.Background(), shard.Spec{ShardSpec: sp, Resume: cuts[len(cuts)/2]}, nil)
	if err != nil {
		t.Fatalf("legacy adoption spec: %v", err)
	}
	a, err := state.EncodeSnapshotWire(full)
	if err != nil {
		t.Fatal(err)
	}
	if b, err = state.EncodeSnapshotWire(resumed); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("the legacy adoption spec resumed to a different snapshot")
	}
}

// TestUnshardedFingerprintPinned pins the fingerprint every unsharded
// run writes into its checkpoints. An unsharded run fingerprints as
// shard 0 of 0 whatever Config.Shards holds (the CLI's default is 1), so
// a checkpoint cut by `freephish -checkpoint` keeps resuming.
func TestUnshardedFingerprintPinned(t *testing.T) {
	const want = `v2 {"seed":1,"epoch":"2022-11-01T00:00:00Z","duration":15724800000000000,"fwb_twitter":19724,"fwb_facebook":11681,"self_twitter":19724,"self_facebook":11681,"benign_per_phish":0.5,"scale":0.01,"poll_interval":600000000000,"train_per_class":4656,"growth_exponent":1.6,"reshare_rate":0.4,"shard":0,"shards":0}`
	for _, shards := range []int{0, 1} {
		cfg := DefaultConfig()
		cfg.Scale = 0.01
		cfg.CheckpointEvery = 5
		cfg.Shards = shards
		if got := New(cfg).fingerprint(); got != want {
			t.Errorf("Shards %d: fingerprint\n  got  %s\n  want %s", shards, got, want)
		}
	}
	// Run ignores Config.Shard and Config.Fingerprint: neither reaches the
	// run's own fingerprint or a dispatched spec.
	t.Run("position_and_fingerprint_ignored", func(t *testing.T) {
		cfg := DefaultConfig()
		cfg.Scale = 0.01
		cfg.CheckpointEvery = 5
		cfg.Shards = 4
		junk := cfg
		junk.Shard, junk.Fingerprint = 3, "x"
		if got := New(junk).fingerprint(); got != want {
			t.Errorf("fingerprint with Shard 3 and Fingerprint x:\n  got  %s\n  want %s", got, want)
		}
		for i := 0; i < cfg.Shards; i++ {
			a, err := json.Marshal(New(cfg).shardSpec(i, 7))
			if err != nil {
				t.Fatal(err)
			}
			b, err := json.Marshal(New(junk).shardSpec(i, 7))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a, b) {
				t.Errorf("shard %d spec with Shard 3 and Fingerprint x:\n  got  %s\n  want %s", i, b, a)
			}
		}
	})
}

// FuzzSpecRoundTrip feeds arbitrary bytes to the spec decoder a worker
// runs on every dispatch. For any bytes that decode, specFingerprint must
// not panic, and re-encoding then decoding must give the same bytes and
// the same fingerprint. It compares bytes, not reflect.DeepEqual: a
// decoded Epoch's location differs from the original's. Besides the
// empty spec, testdata/fuzz/FuzzSpecRoundTrip seeds it with
// TestSpecBytesPinned's wire JSON and with that JSON carrying the retired
// snapshot_cache_size key.
func FuzzSpecRoundTrip(f *testing.F) {
	f.Add([]byte(`{}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var spec shard.Spec
		if json.Unmarshal(data, &spec) != nil {
			return
		}
		fp := specFingerprint(spec.ShardSpec)
		once, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("a decoded spec does not re-encode: %v", err)
		}
		var again shard.Spec
		if err := json.Unmarshal(once, &again); err != nil {
			t.Fatalf("a re-encoded spec does not decode: %v\n%s", err, once)
		}
		twice, err := json.Marshal(again)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(once, twice) {
			t.Fatalf("spec bytes move on a round trip:\n  once  %s\n  twice %s", once, twice)
		}
		if got := specFingerprint(again.ShardSpec); got != fp {
			t.Fatalf("fingerprint moves on a round trip:\n  got  %s\n  want %s", got, fp)
		}
	})
}
