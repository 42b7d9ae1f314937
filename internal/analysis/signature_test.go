package analysis

import (
	"bytes"
	"encoding/json"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"
	"unsafe"

	"freephish/internal/fwb"
	"freephish/internal/htmlx"
	"freephish/internal/webgen"
)

// TestDocSignatureMatchesPageSignature checks the parsed-page signature
// against the HTML one on every page family the generator emits, so a
// caller that reuses the crawler's parse records the same signature.
func TestDocSignatureMatchesPageSignature(t *testing.T) {
	g := webgen.NewGenerator(5, nil, nil)
	at := time.Date(2022, 11, 1, 0, 0, 0, 0, time.UTC)
	pages := []string{""}
	g.OnSecondary = func(s *fwb.Site) { pages = append(pages, s.HTML) }
	for _, svc := range fwb.All() {
		pages = append(pages, g.BenignFWBSite(svc, at).HTML)
		for _, kind := range []fwb.SiteKind{fwb.KindPhishing, fwb.KindTwoStep, fwb.KindIFrameEmbed, fwb.KindDriveByDL} {
			pages = append(pages, g.PhishingFWBSiteOf(svc, kind, at).HTML)
		}
	}
	for i := 0; i < 20; i++ {
		kit, _ := g.SelfHostedKitPhishing(at)
		pages = append(pages, kit.HTML, g.SelfHostedPhishing(at).HTML, g.BenignSelfHosted(at).HTML)
	}
	for _, h := range pages {
		got, want := DocSignature(htmlx.Parse(h)), PageSignature(h)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("DocSignature = %v, PageSignature = %v for page:\n%s", got, want, h)
		}
		if got == nil {
			t.Fatalf("nil signature for page %q", h)
		}
	}
}

// referenceDocSignature is the map-of-tokens DocSignature that Signature
// replaced, kept to check the sorted form against.
func referenceDocSignature(doc *htmlx.Node) map[string]bool {
	sig := make(map[string]bool)
	doc.Walk(func(n *htmlx.Node) bool {
		if n.Type != htmlx.ElementNode {
			return true
		}
		if cls, ok := n.Attr("class"); ok {
			for _, tok := range strings.Fields(cls) {
				sig["c:"+tok] = true
			}
		}
		switch n.Tag {
		case "link":
			if href, ok := n.Attr("href"); ok {
				sig["r:"+href] = true
			}
		case "script":
			if src, ok := n.Attr("src"); ok {
				sig["r:"+src] = true
			}
		}
		return true
	})
	return sig
}

// checkDocSignature checks DocSignature on html against the reference:
// the same set, sorted and duplicate-free, non-nil, and laid out in one
// backing string that is not the page's.
func checkDocSignature(t *testing.T, html string) {
	t.Helper()
	doc := htmlx.Parse(html)
	got, want := DocSignature(doc), referenceDocSignature(doc)
	if got == nil {
		t.Fatalf("nil signature for %q", html)
	}
	if !reflect.DeepEqual(mapForm(got), want) {
		t.Fatalf("DocSignature = %q, reference %v for %q", got, want, html)
	}
	for i := 1; i < len(got); i++ {
		if got[i-1] >= got[i] {
			t.Fatalf("signature not strictly sorted at %d: %q", i, got)
		}
	}
	if len(got) == 0 {
		return
	}
	base := uintptr(unsafe.Pointer(unsafe.StringData(got[0])))
	off := uintptr(0)
	for _, tok := range got {
		if uintptr(unsafe.Pointer(unsafe.StringData(tok))) != base+off {
			t.Fatalf("token %q is not in the signature's one backing string", tok)
		}
		off += uintptr(len(tok))
	}
	lo := uintptr(unsafe.Pointer(unsafe.StringData(html)))
	if base < lo+uintptr(len(html)) && lo < base+off {
		t.Fatal("signature shares memory with the page")
	}
}

// TestDocSignatureMatchesReference checks every generated page kind of
// twenty seeds' samples against the map-based reference.
func TestDocSignatureMatchesReference(t *testing.T) {
	at := time.Date(2022, 11, 1, 0, 0, 0, 0, time.UTC)
	for seed := int64(1); seed <= 20; seed++ {
		for _, site := range webgen.SamplePages(seed, at) {
			checkDocSignature(t, site.HTML)
		}
	}
	checkDocSignature(t, "")
}

// TestDocSignatureAllocs pins the cost of a signature over a parsed page:
// one backing string and one slice, and nothing for an empty page.
func TestDocSignatureAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop buffers at random")
	}
	at := time.Date(2022, 11, 1, 0, 0, 0, 0, time.UTC)
	site, _ := webgen.NewGenerator(2, nil, nil).SelfHostedKitPhishing(at)
	for _, tc := range []struct {
		html string
		want float64
	}{{site.HTML, 2}, {"", 0}} {
		doc := htmlx.Parse(tc.html)
		if got := testing.AllocsPerRun(100, func() { DocSignature(doc) }); got != tc.want {
			t.Errorf("DocSignature allocates %v times per page of %d bytes, want %v", got, len(tc.html), tc.want)
		}
	}
}

// FuzzDocSignatureMatchesReference checks DocSignature against the
// reference on arbitrary markup, class values with Unicode spaces (which
// strings.Fields splits on) and invalid UTF-8 (which it does not) among
// the seeds.
func FuzzDocSignatureMatchesReference(f *testing.F) {
	at := time.Date(2022, 11, 1, 0, 0, 0, 0, time.UTC)
	for _, site := range webgen.SamplePages(1, at)[:12] {
		f.Add(site.HTML)
	}
	for _, s := range []string{
		"<div class=\"a\u0085b\">", "<p class=\"x\u00a0y  z\">", "<span class=\"\u3000q\u3000\u3000r\">",
		"<div class=\"a\xffb \xc2 c\xe3\x80\">", "<i class='\t\n\v\f\r dup dup'>", `<link href="s.css"><script src="s.css"></script><b class="s.css">`,
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, html string) {
		if len(html) > 1<<16 {
			html = html[:1<<16]
		}
		checkDocSignature(t, html)
	})
}

// FuzzSignatureJSON checks MarshalJSON against json.Marshal of the map
// form, for keys split out of the input at NUL bytes, and that the JSON
// decodes back to the set the map form decodes to.
func FuzzSignatureJSON(f *testing.F) {
	f.Add("")
	f.Add("\x00")
	f.Add("c:a\x00r:b.css\x00c:a")
	f.Add("<div>\x00a<b>&c\u2028d\u2029e\xff\xfe\"\\\n\x00\x01\x1f\x7f\b\f\t\r")
	f.Fuzz(func(t *testing.T, s string) {
		var sig Signature
		if s != "" {
			sig = asSignature(strings.Split(s, "\x00"))
		}
		got, err := sig.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(mapForm(sig))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("MarshalJSON = %s, map form %s", got, want)
		}
		if viaMarshal, err := json.Marshal(sig); err != nil || !bytes.Equal(viaMarshal, want) {
			t.Fatalf("json.Marshal(sig) = %s (%v), map form %s", viaMarshal, err, want)
		}
		var back Signature
		var m map[string]bool
		if err := json.Unmarshal(got, &back); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(got, &m); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(mapForm(back), m) || !slices.IsSorted(back) {
			t.Fatalf("decoded %q, map form decodes to %v", back, m)
		}
	})
}

func TestSignatureJSONRejectsFalse(t *testing.T) {
	var sig Signature
	if err := json.Unmarshal([]byte(`{"c:a":true,"c:b":false}`), &sig); err == nil {
		t.Fatalf("a false token decoded to %q", sig)
	}
	if err := json.Unmarshal([]byte(`["c:a"]`), &sig); err == nil {
		t.Fatalf("an array decoded to %q", sig)
	}
}

// TestReadJSONLNormalizesSignature checks that a stream written by another
// tool, with its signature tokens out of order and repeated, loads as a
// sorted, duplicate-free set.
func TestReadJSONLNormalizesSignature(t *testing.T) {
	line := `{"url":"http://a.example/","kind":"self-hosted-phishing","shared_at":"2022-11-01T00:00:00Z","platform":"twitter","post_id":"p","credential_fields":false,"noindex":false,"banner_obfuscated":false,"hidden_iframe":false,"drive_by":false,"two_step":false,"domain_age_days":0,"in_ct_log":false,"search_indexed":false,"tls":false,"signature":["r:x.js","c:b","c:a","c:b"],"score":0.9,"classified_at":"2022-11-01T00:00:00Z"}`
	s, err := ReadJSONL(strings.NewReader(line + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := s.Records[0].Signature, (Signature{"c:a", "c:b", "r:x.js"}); !slices.Equal(got, want) {
		t.Fatalf("signature = %q, want %q", got, want)
	}
}
