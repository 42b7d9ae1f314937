package htmlx

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"freephish/internal/webgen"
)

// referenceParse is the pointer-per-node tree builder Parse replaced: one
// allocation per node, and Attrs and Children grown by append. Parse must
// build a tree equal to its, nil-ness of empty slices included.
func referenceParse(src string) *Node {
	doc := &Node{Type: DocumentNode}
	stack := []*Node{doc}
	top := func() *Node { return stack[len(stack)-1] }

	z := NewTokenizer(src)
	for {
		tok, ok := z.Next()
		if !ok {
			break
		}
		switch tok.Type {
		case TextToken:
			if strings.TrimSpace(tok.Data) == "" {
				continue
			}
			n := &Node{Type: TextNode, Text: tok.Data, Raw: tok.Raw, Parent: top()}
			top().Children = append(top().Children, n)
		case CommentToken:
			n := &Node{Type: CommentNode, Text: tok.Data, Raw: tok.Raw, Parent: top()}
			top().Children = append(top().Children, n)
		case StartTagToken, SelfClosingTagToken:
			n := &Node{Type: ElementNode, Tag: tok.Data, Attrs: tok.Attrs, Raw: tok.Raw, Parent: top()}
			top().Children = append(top().Children, n)
			if tok.Type == StartTagToken && !voidTags[tok.Data] {
				stack = append(stack, n)
			}
		case EndTagToken:
			for i := len(stack) - 1; i >= 1; i-- {
				if stack[i].Tag == tok.Data {
					stack = stack[:i]
					break
				}
			}
		case DoctypeToken:
		}
	}
	return doc
}

// samplePages is every generated page kind for seeds 1 and 7.
func samplePages(tb testing.TB) []string {
	tb.Helper()
	at := time.Date(2022, 11, 1, 0, 0, 0, 0, time.UTC)
	var out []string
	for _, seed := range []int64{1, 7} {
		for _, site := range webgen.SamplePages(seed, at) {
			out = append(out, site.HTML)
		}
	}
	return out
}

// checkMatchesReference fails t unless Parse(src) equals referenceParse(src).
// reflect.DeepEqual tells a nil slice from an empty one, and follows
// Parent pointers through its cycle check.
func checkMatchesReference(t *testing.T, src string) {
	t.Helper()
	got, want := Parse(src), referenceParse(src)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Parse differs from the reference builder on %q:\n got %s\nwant %s",
			trunc(src), dump(got), dump(want))
	}
}

func trunc(s string) string {
	if len(s) > 200 {
		return s[:200] + "..."
	}
	return s
}

// dump renders a tree's shape, one node per line, for failure messages.
func dump(n *Node) string {
	var b strings.Builder
	var rec func(n *Node, depth int)
	rec = func(n *Node, depth int) {
		b.WriteString("\n" + strings.Repeat("  ", depth))
		b.WriteString(strings.Join([]string{n.Tag, n.Text, n.Raw}, "|"))
		if n.Attrs == nil {
			b.WriteString(" attrs=nil")
		}
		if n.Children == nil {
			b.WriteString(" children=nil")
		}
		for _, c := range n.Children {
			rec(c, depth+1)
		}
	}
	rec(n, 0)
	return b.String()
}

func TestParseMatchesReference(t *testing.T) {
	for _, src := range parseSeeds {
		checkMatchesReference(t, src)
	}
	pages := samplePages(t)
	if len(pages) < 100 {
		t.Fatalf("only %d sample pages", len(pages))
	}
	for _, src := range pages {
		checkMatchesReference(t, src)
	}
}

func FuzzParseMatchesReference(f *testing.F) {
	for _, s := range parseSeeds {
		f.Add(s)
	}
	for _, s := range samplePages(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<16 {
			src = src[:1<<16]
		}
		checkMatchesReference(t, src)
	})
}

// TestParseAllocs pins the slab layout: a page costs its three slabs and
// nothing per node, whatever its size.
func TestParseAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop buffers at random")
	}
	pages := samplePages(t)
	small, large := pages[0], pages[0]
	for _, p := range pages {
		if len(p) < len(small) {
			small = p
		}
		if len(p) > len(large) {
			large = p
		}
	}
	const maxAllocs = 3
	for _, src := range []string{small, large} {
		nodes := 0
		Parse(src).Walk(func(*Node) bool { nodes++; return true })
		got := testing.AllocsPerRun(100, func() { Parse(src) })
		if got > maxAllocs {
			t.Errorf("Parse of a %d-node page: %.1f allocs, want at most %d", nodes, got, maxAllocs)
		}
	}
}
