package htmlx

import (
	"fmt"
	"strings"
	"testing"
)

// tokenSummary renders tokens as "Type:Data" for table comparison.
func tokenSummary(src string) []string {
	var out []string
	for _, t := range tokens(src) {
		out = append(out, fmt.Sprintf("%s:%q", t.Type, t.Data))
	}
	return out
}

// TestRawTextNonASCII pins the raw-text cut on content whose lower case
// has another UTF-8 length (U+0130 İ: 2 bytes to 1; U+212A KELVIN SIGN:
// 3 bytes to 1) or that case mapping would replace (invalid bytes become
// U+FFFD). The body must end exactly at the close tag in every raw-text
// element, and the close tag must come out as a tag.
func TestRawTextNonASCII(t *testing.T) {
	bodies := []string{"İ", "\u212a", "\xff\xff", "İ\u212a\xffx İİİ", "\xe2\x84", "K\u212ak"}
	for _, tag := range []string{"script", "style", "textarea", "title"} {
		for _, body := range bodies {
			for _, closeTag := range []string{"</" + tag + ">", "</" + strings.ToUpper(tag) + ">"} {
				src := "<" + tag + ">" + body + closeTag + "<b>y</b>"
				want := []string{
					fmt.Sprintf("StartTag:%q", tag),
					fmt.Sprintf("Text:%q", body),
					fmt.Sprintf("EndTag:%q", tag),
					`StartTag:"b"`, `Text:"y"`, `EndTag:"b"`,
				}
				if got := tokenSummary(src); fmt.Sprint(got) != fmt.Sprint(want) {
					t.Errorf("%q:\n got %v\nwant %v", src, got, want)
				}
			}
		}
	}

	// Close-tag lookalikes are raw text: only ASCII letters fold, so İ is
	// not "i" and the Kelvin sign is not "k".
	for _, tc := range []struct{ src, body string }{
		{"<script>a</scrİpt>b</script>", "a</scrİpt>b"},
		{"<title>a</tİtle>b</title>", "a</tİtle>b"},
		{"<style>\u212a</st\u212ayle></style>", "\u212a</st\u212ayle>"},
	} {
		toks := tokens(tc.src)
		if len(toks) != 3 || toks[1].Data != tc.body || toks[2].Type != EndTagToken {
			t.Errorf("%q: tokens %v, want body %q then the close tag", tc.src, tokenSummary(tc.src), tc.body)
		}
	}
}

func FuzzRawTextScan(f *testing.F) {
	for _, seed := range []struct{ s, tag string }{
		{"", "script"},
		{"a</script>", "script"},
		{"if(a<b)</SCRIPT >", "script"},
		{"</scrip</script>", "script"},
		{"</", "style"},
		{"</titl", "title"},
		{"x</TeXtArEa>", "textarea"},
		{"\xff\xff</title>", "title"},
		{"İ</style>", "style"},
	} {
		f.Add(seed.s, seed.tag)
	}
	f.Fuzz(func(t *testing.T, s, tag string) {
		tag = strings.ToLower(tag)
		got := indexCloseTag(s, tag)
		if got >= 0 && (!strings.HasPrefix(s[got:], "</") || !strings.EqualFold(s[got+2:got+2+len(tag)], tag)) {
			t.Fatalf("indexCloseTag(%q, %q) = %d, which is not a close tag", s, tag, got)
		}
		if !isASCII(s) || !isASCII(tag) {
			return
		}
		// On ASCII input, lower-casing the document preserves offsets, so
		// the old lower-then-search scan is the reference.
		if want := strings.Index(strings.ToLower(s), "</"+tag); got != want {
			t.Fatalf("indexCloseTag(%q, %q) = %d, lower-case scan gives %d", s, tag, got, want)
		}
	})
}

func isASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= 0x80 {
			return false
		}
	}
	return true
}
