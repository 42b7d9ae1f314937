package htmlx

import "testing"

// Native fuzz targets: the parser and entity decoder face attacker-supplied
// input on every crawl, so "never panic, always terminate" matters more
// than any single behaviour. Run with: go test -fuzz FuzzParse ./internal/htmlx

// parseSeeds seed FuzzParse and FuzzParseMatchesReference: each is a shape
// that once broke, or nearly broke, the tokenizer or the tree builder.
var parseSeeds = []string{
	"",
	"<html><body><p>hi</p></body></html>",
	"<div class='a' style=\"display:none\"><img src=x>",
	"<script>if(a<b){x()}</script>",
	"<!-- comment --><!DOCTYPE html>",
	"<a href='x?a>b'>t</a></span></div>",
	"<<<>>><input type=password>",
	"\x00\xff<weird>",
	"<SCRIPT>x</SCRIPT><p>y",
	"<script>a</SCRIPT",
	"<script></scrip</script>",
	"<style>a</",
	"<title>\xff\xff</title><b>y</b>",
	"<textarea>İ\u212a</TEXTAREA>",
}

func FuzzParse(f *testing.F) {
	for _, s := range parseSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 4096 {
			src = src[:4096]
		}
		doc := Parse(src)
		// The tree must be traversable and every element's raw start tag
		// must be non-empty.
		doc.Walk(func(n *Node) bool {
			if n.Type == ElementNode && n.Tag == "" {
				t.Fatal("element with empty tag")
			}
			return true
		})
		_ = doc.InnerText()
		_ = doc.TagStrings()
		_ = doc.Select("div.x input[type=password]")
	})
}

func FuzzDecodeEntities(f *testing.F) {
	for _, s := range []string{"", "&amp;", "&#65;", "&#x41;", "&broken", "a&b;c", "&#xZZ;"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 2048 {
			src = src[:2048]
		}
		out := DecodeEntities(src)
		if len(out) > len(src)+4 {
			t.Fatalf("decode grew input: %d -> %d", len(src), len(out))
		}
	})
}
