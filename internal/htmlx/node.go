package htmlx

import (
	"strings"
	"sync"
)

// NodeType identifies the kind of a DOM node.
type NodeType int

// Node kinds in the parsed tree.
const (
	ElementNode NodeType = iota
	TextNode
	CommentNode
	DocumentNode
)

// Node is one node of the lightweight DOM. Children are ordered.
type Node struct {
	Type     NodeType
	Tag      string // element tag (lower-cased), empty otherwise
	Text     string // text/comment content, empty for elements
	Attrs    []Attr
	Raw      string // raw source of the start tag (elements) or content
	Parent   *Node
	Children []*Node
}

// Attr returns the value of the named attribute and whether it is present.
func (n *Node) Attr(name string) (string, bool) {
	for _, a := range n.Attrs {
		if a.Key == name {
			return a.Val, true
		}
	}
	return "", false
}

// AttrOr returns the named attribute value or def when absent.
func (n *Node) AttrOr(name, def string) string {
	if v, ok := n.Attr(name); ok {
		return v
	}
	return def
}

// voidTags never have children (HTML void elements).
var voidTags = map[string]bool{
	"area": true, "base": true, "br": true, "col": true, "embed": true,
	"hr": true, "img": true, "input": true, "link": true, "meta": true,
	"param": true, "source": true, "track": true, "wbr": true,
}

// protoNode is a node of Parse's first pass: the Node fields plus its
// parent's index, its attributes' range in the shared attribute buffer and
// its child count.
type protoNode struct {
	typ            NodeType
	tag, text, raw string
	parent         int32
	attrLo, attrHi int32
	children       int32
}

// parseScratch holds Parse's first-pass buffers, reused across calls.
type parseScratch struct {
	nodes []protoNode
	attrs []Attr
	open  []int32 // indices of the open elements, the document first
}

// maxPooled caps the node and attribute buffers a scratch may keep in the
// pool, so one huge page does not pin its buffers for the life of the
// process.
const maxPooled = 1 << 16

var scratchPool = sync.Pool{New: func() any { return new(parseScratch) }}

// Parse builds a DOM tree from src. It never fails: malformed input
// produces a best-effort tree, matching how browsers treat hostile pages.
//
// The tree is built in two passes. The first tokenizes src into pooled
// scratch buffers: proto nodes that name their parent by index, and one
// attribute buffer every tag appends to. The second copies them into three
// allocations of exact size — every Node, every Attr, and every Children
// slice as a three-index window of one []*Node — so a page costs three
// allocations whatever its node count. Empty Attrs and Children are nil.
func Parse(src string) *Node {
	sc := scratchPool.Get().(*parseScratch)
	sc.nodes = append(sc.nodes, protoNode{typ: DocumentNode, parent: -1})
	sc.open = append(sc.open, 0)
	add := func(p protoNode) int32 {
		p.parent = sc.open[len(sc.open)-1]
		sc.nodes[p.parent].children++
		sc.nodes = append(sc.nodes, p)
		return int32(len(sc.nodes) - 1)
	}

	z := Tokenizer{src: src}
	for {
		lo := len(sc.attrs)
		tok, attrs, ok := z.next(sc.attrs)
		if !ok {
			break
		}
		sc.attrs = attrs
		switch tok.Type {
		case TextToken:
			if strings.TrimSpace(tok.Data) == "" {
				continue
			}
			add(protoNode{typ: TextNode, text: tok.Data, raw: tok.Raw})
		case CommentToken:
			add(protoNode{typ: CommentNode, text: tok.Data, raw: tok.Raw})
		case StartTagToken, SelfClosingTagToken:
			i := add(protoNode{typ: ElementNode, tag: tok.Data, raw: tok.Raw,
				attrLo: int32(lo), attrHi: int32(len(sc.attrs))})
			if tok.Type == StartTagToken && !voidTags[tok.Data] {
				sc.open = append(sc.open, i)
			}
		case EndTagToken:
			// Pop to the matching open element; drop the close tag if no
			// ancestor matches (stray close).
			for i := len(sc.open) - 1; i >= 1; i-- {
				if sc.nodes[sc.open[i]].tag == tok.Data {
					sc.open = sc.open[:i]
					break
				}
			}
		case DoctypeToken:
			// Ignored: carries no structure.
		}
	}

	doc := sc.build()
	clear(sc.nodes)
	clear(sc.attrs)
	if cap(sc.nodes) <= maxPooled && cap(sc.attrs) <= maxPooled {
		sc.nodes, sc.attrs, sc.open = sc.nodes[:0], sc.attrs[:0], sc.open[:0]
		scratchPool.Put(sc)
	}
	return doc
}

// build copies the first pass into the exact-size node, attribute and
// child-pointer slabs and returns the document node. Nodes were added in
// document order, so each parent precedes its children and every node's
// Children window is laid out before its first child is appended.
func (sc *parseScratch) build() *Node {
	nodes := make([]Node, len(sc.nodes))
	var attrs []Attr
	if len(sc.attrs) > 0 {
		attrs = make([]Attr, len(sc.attrs))
		copy(attrs, sc.attrs)
	}
	var kids []*Node
	if len(nodes) > 1 {
		kids = make([]*Node, len(nodes)-1)
	}
	next := 0
	for i := range sc.nodes {
		p, n := &sc.nodes[i], &nodes[i]
		n.Type, n.Tag, n.Text, n.Raw = p.typ, p.tag, p.text, p.raw
		if p.attrHi > p.attrLo {
			n.Attrs = attrs[p.attrLo:p.attrHi:p.attrHi]
		}
		if c := int(p.children); c > 0 {
			n.Children = kids[next : next : next+c]
			next += c
		}
		if p.parent >= 0 {
			parent := &nodes[p.parent]
			n.Parent = parent
			parent.Children = append(parent.Children, n)
		}
	}
	return &nodes[0]
}

// Walk visits every node in depth-first document order, starting at n.
// Returning false from fn prunes the subtree below the current node.
func (n *Node) Walk(fn func(*Node) bool) {
	if !fn(n) {
		return
	}
	for _, c := range n.Children {
		c.Walk(fn)
	}
}

// FindAll returns every element beneath n (inclusive) with the given tag.
func (n *Node) FindAll(tag string) []*Node {
	var out []*Node
	n.Walk(func(c *Node) bool {
		if c.Type == ElementNode && c.Tag == tag {
			out = append(out, c)
		}
		return true
	})
	return out
}

// Find returns the first element with the given tag in document order, or
// nil when absent.
func (n *Node) Find(tag string) *Node {
	var found *Node
	n.Walk(func(c *Node) bool {
		if found != nil {
			return false
		}
		if c.Type == ElementNode && c.Tag == tag {
			found = c
			return false
		}
		return true
	})
	return found
}

// FindAllFunc returns every element for which pred is true.
func (n *Node) FindAllFunc(pred func(*Node) bool) []*Node {
	var out []*Node
	n.Walk(func(c *Node) bool {
		if c.Type == ElementNode && pred(c) {
			out = append(out, c)
		}
		return true
	})
	return out
}

// InnerText concatenates all text beneath n, with single spaces between
// fragments and surrounding whitespace trimmed.
func (n *Node) InnerText() string {
	var parts []string
	n.Walk(func(c *Node) bool {
		if c.Type == TextNode {
			if s := strings.TrimSpace(c.Text); s != "" {
				parts = append(parts, s)
			}
		}
		return true
	})
	return strings.Join(parts, " ")
}

// TagStrings returns the raw start-tag source of every element beneath n,
// in document order. This is the "tag elements" input to the Appendix A
// site-similarity computation.
func (n *Node) TagStrings() []string {
	var out []string
	n.Walk(func(c *Node) bool {
		if c.Type == ElementNode {
			out = append(out, c.Raw)
		}
		return true
	})
	return out
}

// HasHiddenStyle reports whether the node's inline style hides it:
// visibility:hidden or display:none. The paper's "Obfuscating FWB Footer"
// feature (Section 4.2) looks for exactly this trick applied to the banner
// <div>.
func (n *Node) HasHiddenStyle() bool {
	style, ok := n.Attr("style")
	if !ok {
		return false
	}
	s := strings.ToLower(strings.ReplaceAll(style, " ", ""))
	return strings.Contains(s, "visibility:hidden") || strings.Contains(s, "display:none")
}

// Style returns the value of one property from the node's inline style
// attribute, lower-cased and trimmed, or "" when absent.
func (n *Node) Style(prop string) string {
	style, ok := n.Attr("style")
	if !ok {
		return ""
	}
	for _, decl := range strings.Split(style, ";") {
		k, v, ok := strings.Cut(decl, ":")
		if !ok {
			continue
		}
		if strings.EqualFold(strings.TrimSpace(k), prop) {
			return strings.ToLower(strings.TrimSpace(v))
		}
	}
	return ""
}

// Render serializes the tree back to HTML: elements re-emit their raw
// start tags (preserving original attribute text) with synthesized close
// tags, text and comments verbatim. A parse→Render→parse round trip
// preserves the tree structure, which the property tests assert.
func (n *Node) Render() string {
	var b strings.Builder
	n.render(&b)
	return b.String()
}

func (n *Node) render(b *strings.Builder) {
	switch n.Type {
	case DocumentNode:
		for _, c := range n.Children {
			c.render(b)
		}
	case TextNode:
		b.WriteString(n.Text)
	case CommentNode:
		b.WriteString("<!--")
		b.WriteString(n.Text)
		b.WriteString("-->")
	case ElementNode:
		b.WriteString(n.Raw)
		if voidTags[n.Tag] || strings.HasSuffix(n.Raw, "/>") {
			return
		}
		for _, c := range n.Children {
			c.render(b)
		}
		b.WriteString("</")
		b.WriteString(n.Tag)
		b.WriteString(">")
	}
}
