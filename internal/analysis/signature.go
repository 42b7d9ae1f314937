package analysis

import (
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"sync"
	"unicode"
	"unicode/utf8"

	"freephish/internal/htmlx"
)

// Signature is a page's markup fingerprint as a sorted, duplicate-free set
// of tokens: "c:"+class for every CSS class token and "r:"+path for every
// static resource the page includes. Per-page random attributes (ids, data
// blobs) are excluded by construction. A nil Signature was never captured;
// an empty non-nil one is the signature of a page with no markup.
type Signature []string

// asSignature returns toks as a Signature. Streams this package writes
// hold their tokens sorted and unique; toks from anywhere else are sorted
// and deduplicated in place first.
func asSignature(toks []string) Signature {
	for i := 1; i < len(toks); i++ {
		if toks[i-1] >= toks[i] {
			slices.Sort(toks)
			return slices.Compact(toks)
		}
	}
	return toks
}

// PageSignature extracts a page's markup fingerprint from its HTML.
func PageSignature(html string) Signature {
	return DocSignature(htmlx.Parse(html))
}

// DocSignature is PageSignature over an already parsed page, so a caller
// holding the crawler's parse does not parse the page again.
//
// One walk gathers the tokens as references into the parse's strings in a
// pooled scratch; they are then sorted, deduplicated and copied into one
// exactly sized backing string that every element of the result slices.
// A page costs two allocations, the string and the slice, and the result
// does not keep the page's HTML alive.
func DocSignature(doc *htmlx.Node) Signature {
	sc := sigPool.Get().(*sigScratch)
	doc.Walk(sc.visit)
	sig := sc.build()
	clear(sc.refs)
	if cap(sc.refs) <= maxPooledRefs {
		sc.refs = sc.refs[:0]
		sigPool.Put(sc)
	}
	return sig
}

// sigRef is one signature token found in the walk: its kind byte ('c' or
// 'r') and the token itself, still a substring of the parse.
type sigRef struct {
	kind byte
	tok  string
}

// sigScratch holds DocSignature's references, reused across calls.
type sigScratch struct{ refs []sigRef }

// maxPooledRefs caps the references a scratch may keep in the pool, so
// one huge page does not pin its buffer for the life of the process.
const maxPooledRefs = 1 << 14

var sigPool = sync.Pool{New: func() any { return new(sigScratch) }}

func (sc *sigScratch) visit(n *htmlx.Node) bool {
	if n.Type != htmlx.ElementNode {
		return true
	}
	if cls, ok := n.Attr("class"); ok {
		sc.addFields(cls)
	}
	switch n.Tag {
	case "link":
		if href, ok := n.Attr("href"); ok {
			sc.refs = append(sc.refs, sigRef{'r', href})
		}
	case "script":
		if src, ok := n.Attr("src"); ok {
			sc.refs = append(sc.refs, sigRef{'r', src})
		}
	}
	return true
}

// addFields adds the class tokens of s, split exactly as strings.Fields
// splits: around runs of unicode.IsSpace, an invalid byte not a space.
func (sc *sigScratch) addFields(s string) {
	start := -1
	for i := 0; i < len(s); {
		r, size := rune(s[i]), 1
		if r >= utf8.RuneSelf {
			r, size = utf8.DecodeRuneInString(s[i:])
		}
		if !unicode.IsSpace(r) {
			if start < 0 {
				start = i
			}
		} else if start >= 0 {
			sc.refs = append(sc.refs, sigRef{'c', s[start:i]})
			start = -1
		}
		i += size
	}
	if start >= 0 {
		sc.refs = append(sc.refs, sigRef{'c', s[start:]})
	}
}

// build sorts and deduplicates the references and copies them out. Every
// token's prefix is its kind byte and a colon, so ordering by kind, then
// token, is the order of the prefixed strings.
func (sc *sigScratch) build() Signature {
	refs := sc.refs
	slices.SortFunc(refs, func(a, b sigRef) int {
		if a.kind != b.kind {
			return int(a.kind) - int(b.kind)
		}
		return strings.Compare(a.tok, b.tok)
	})
	refs = slices.Compact(refs)
	if len(refs) == 0 {
		return Signature{}
	}
	n := 0
	for _, r := range refs {
		n += len("c:") + len(r.tok)
	}
	var b strings.Builder
	b.Grow(n)
	for _, r := range refs {
		b.WriteByte(r.kind)
		b.WriteByte(':')
		b.WriteString(r.tok)
	}
	all := b.String()
	sig := make(Signature, len(refs))
	for i, r := range refs {
		w := len("c:") + len(r.tok)
		sig[i], all = all[:w], all[w:]
	}
	return sig
}

// Jaccard returns |a∩b| / |a∪b|; two empty signatures count as identical.
func Jaccard(a, b Signature) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	inter := 0
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch c := strings.Compare(a[i], b[j]); {
		case c < 0:
			i++
		case c > 0:
			j++
		default:
			inter++
			i++
			j++
		}
	}
	return jaccardOf(inter, len(a), len(b))
}

// jaccardOf is the Jaccard index of two sets of sizes na and nb that share
// inter elements, not both empty.
func jaccardOf(inter, na, nb int) float64 {
	return float64(inter) / float64(na+nb-inter)
}

// MarshalJSON writes s as the object {"token":true,...}: the form a
// signature held as a map of tokens to true marshalled to, with keys in
// the same order and escaped as encoding/json escapes map keys, so
// checkpoints and snapshot frames keep their bytes. nil writes null.
func (s Signature) MarshalJSON() ([]byte, error) {
	if s == nil {
		return []byte("null"), nil
	}
	n := len("{}")
	for _, k := range s {
		n += len(`"":true,`) + len(k)
	}
	b := make([]byte, 0, n)
	b = append(b, '{')
	for i, k := range s {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendJSONString(b, k)
		b = append(b, ":true"...)
	}
	return append(b, '}'), nil
}

// UnmarshalJSON reads the object MarshalJSON writes. Every value must be
// true; null leaves s nil and {} makes it empty and non-nil.
func (s *Signature) UnmarshalJSON(data []byte) error {
	var m map[string]bool
	if err := json.Unmarshal(data, &m); err != nil {
		return err
	}
	if m == nil {
		*s = nil
		return nil
	}
	keys := make(Signature, 0, len(m))
	for k, v := range m {
		if !v {
			return fmt.Errorf("analysis: signature token %q is false", k)
		}
		keys = append(keys, k)
	}
	slices.Sort(keys)
	*s = keys
	return nil
}

// appendJSONString appends s as a JSON string escaped as encoding/json
// escapes it with HTML escaping on (json.Marshal's default): quotes,
// backslashes, control bytes, <, > and &, U+2028 and U+2029, and each
// invalid UTF-8 byte as \ufffd.
func appendJSONString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
