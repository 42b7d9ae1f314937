// Package htmlx is a from-scratch HTML tokenizer and lightweight DOM used by
// the FreePhish preprocessing module. The standard library has no HTML
// parser, and the feature extractors (Section 4.2 of the paper) need tag
// structure, attributes, inline styles, forms, links, iframes, and meta tags.
//
// The parser is deliberately forgiving, in the spirit of browsers: unknown
// tags are kept, unclosed elements are closed at end of input, and stray
// close tags are dropped. It is not a full WHATWG tree builder — phishing
// pages are hostile input, so the goal is never to crash and to recover the
// same structure a browser-derived feature pipeline would see.
package htmlx

import (
	"strings"
)

// TokenType identifies the kind of a lexical token.
type TokenType int

// Token kinds produced by the Tokenizer.
const (
	TextToken TokenType = iota
	StartTagToken
	EndTagToken
	SelfClosingTagToken
	CommentToken
	DoctypeToken
)

func (t TokenType) String() string {
	switch t {
	case TextToken:
		return "Text"
	case StartTagToken:
		return "StartTag"
	case EndTagToken:
		return "EndTag"
	case SelfClosingTagToken:
		return "SelfClosingTag"
	case CommentToken:
		return "Comment"
	case DoctypeToken:
		return "Doctype"
	}
	return "Unknown"
}

// Attr is a single name="value" attribute. Names are lower-cased; values
// keep their original text with surrounding quotes removed.
type Attr struct {
	Key string
	Val string
}

// Token is one lexical unit of an HTML document.
type Token struct {
	Type  TokenType
	Data  string // tag name (lower-cased) or text/comment content
	Attrs []Attr
	Raw   string // the exact source slice the token was read from
}

// Attr returns the value of the named attribute and whether it was present.
func (t *Token) Attr(name string) (string, bool) {
	for _, a := range t.Attrs {
		if a.Key == name {
			return a.Val, true
		}
	}
	return "", false
}

// isRawTextTag reports whether an element's content is raw text up to the
// matching close tag (no nested markup).
func isRawTextTag(tag string) bool {
	switch tag {
	case "script", "style", "textarea", "title":
		return true
	}
	return false
}

// Tokenizer splits HTML source into Tokens. The zero value is not usable;
// construct with NewTokenizer.
type Tokenizer struct {
	src string
	pos int
	// pending raw-text mode: after emitting <script> etc., the next token is
	// everything up to the matching close tag.
	rawTag string
}

// NewTokenizer returns a Tokenizer over src.
func NewTokenizer(src string) *Tokenizer {
	return &Tokenizer{src: src}
}

// Next returns the next token, or ok=false at end of input.
func (z *Tokenizer) Next() (Token, bool) {
	tok, attrs, ok := z.next(nil)
	if len(attrs) > 0 {
		tok.Attrs = attrs
	}
	return tok, ok
}

// next is Next with a start or self-closing tag's attributes appended to
// attrs rather than stored in the token, so Parse can gather every tag's
// attributes in one buffer. Other tokens append nothing.
func (z *Tokenizer) next(attrs []Attr) (Token, []Attr, bool) {
	if z.pos >= len(z.src) {
		return Token{}, attrs, false
	}
	if z.rawTag != "" {
		return z.readRawText(), attrs, true
	}
	if z.src[z.pos] == '<' {
		if tok, out, ok := z.readMarkup(attrs); ok {
			return tok, out, true
		}
		// A lone '<' that opens nothing: treat as text.
	}
	return z.readText(), attrs, true
}

// readText consumes up to the next '<' (or end of input).
func (z *Tokenizer) readText() Token {
	start := z.pos
	if z.src[z.pos] == '<' {
		z.pos++ // consume the stray '<' so we make progress
	}
	for z.pos < len(z.src) && z.src[z.pos] != '<' {
		z.pos++
	}
	raw := z.src[start:z.pos]
	return Token{Type: TextToken, Data: raw, Raw: raw}
}

// readRawText consumes raw content for script/style/textarea/title up to the
// matching close tag. The close tag itself is left for the next call.
func (z *Tokenizer) readRawText() Token {
	idx := indexCloseTag(z.src[z.pos:], z.rawTag)
	var raw string
	if idx < 0 {
		raw = z.src[z.pos:]
		z.pos = len(z.src)
	} else {
		raw = z.src[z.pos : z.pos+idx]
		z.pos += idx
	}
	z.rawTag = ""
	return Token{Type: TextToken, Data: raw, Raw: raw}
}

// indexCloseTag returns the offset of the first "</"+tag in s, matching the
// tag name ASCII case-insensitively, or -1. tag must be lower-case ASCII.
// Offsets are into s itself: nothing is case-mapped, so a rune whose lower
// case has another UTF-8 length, or an invalid byte, cannot shift the cut.
// (strings.EqualFold would not do: it folds U+212A KELVIN SIGN to 'k'.)
func indexCloseTag(s, tag string) int {
	for off := 0; ; {
		i := strings.Index(s[off:], "</")
		if i < 0 {
			return -1
		}
		i += off
		if hasPrefixFoldASCII(s[i+2:], tag) {
			return i
		}
		off = i + 2
	}
}

// hasPrefixFoldASCII reports whether s starts with the lower-case ASCII
// prefix, ignoring the case of ASCII letters in s.
func hasPrefixFoldASCII(s, prefix string) bool {
	if len(s) < len(prefix) {
		return false
	}
	for i := 0; i < len(prefix); i++ {
		c := s[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != prefix[i] {
			return false
		}
	}
	return true
}

// readMarkup consumes a tag, comment, or doctype starting at '<', appending
// a start tag's attributes to attrs. It reports ok=false when the '<' does
// not open valid markup.
func (z *Tokenizer) readMarkup(attrs []Attr) (Token, []Attr, bool) {
	rest := z.src[z.pos:]
	switch {
	case strings.HasPrefix(rest, "<!--"):
		return z.readComment(), attrs, true
	case strings.HasPrefix(rest, "<!") || strings.HasPrefix(rest, "<?"):
		return z.readDeclaration(), attrs, true
	}
	if len(rest) < 2 {
		return Token{}, attrs, false
	}
	c := rest[1]
	isEnd := c == '/'
	nameStart := 1
	if isEnd {
		if len(rest) < 3 {
			return Token{}, attrs, false
		}
		c = rest[2]
		nameStart = 2
	}
	if !isAlpha(c) {
		return Token{}, attrs, false
	}
	// Find the closing '>' while honoring quoted attribute values.
	end := -1
	inQuote := byte(0)
	for i := nameStart; i < len(rest); i++ {
		ch := rest[i]
		if inQuote != 0 {
			if ch == inQuote {
				inQuote = 0
			}
			continue
		}
		switch ch {
		case '"', '\'':
			inQuote = ch
		case '>':
			end = i
		}
		if end >= 0 {
			break
		}
	}
	if end < 0 {
		// Unterminated tag: consume the rest as text.
		raw := rest
		z.pos = len(z.src)
		return Token{Type: TextToken, Data: raw, Raw: raw}, attrs, true
	}
	raw := rest[:end+1]
	z.pos += end + 1

	inner := rest[nameStart:end]
	selfClose := false
	if strings.HasSuffix(strings.TrimSpace(inner), "/") {
		selfClose = true
		inner = strings.TrimSpace(inner)
		inner = inner[:len(inner)-1]
	}
	name, body := tagName(inner)
	tok := Token{Data: name, Raw: raw}
	switch {
	case isEnd:
		// An end tag's attributes carry nothing: they are not parsed.
		tok.Type = EndTagToken
	case selfClose:
		tok.Type = SelfClosingTagToken
		attrs = appendAttrs(attrs, body)
	default:
		tok.Type = StartTagToken
		attrs = appendAttrs(attrs, body)
		if isRawTextTag(name) {
			z.rawTag = name
		}
	}
	return tok, attrs, true
}

func (z *Tokenizer) readComment() Token {
	rest := z.src[z.pos:]
	end := strings.Index(rest[4:], "-->")
	var raw, data string
	if end < 0 {
		raw = rest
		data = rest[4:]
		z.pos = len(z.src)
	} else {
		raw = rest[:4+end+3]
		data = rest[4 : 4+end]
		z.pos += len(raw)
	}
	return Token{Type: CommentToken, Data: data, Raw: raw}
}

func (z *Tokenizer) readDeclaration() Token {
	rest := z.src[z.pos:]
	end := strings.IndexByte(rest, '>')
	var raw string
	if end < 0 {
		raw = rest
		z.pos = len(z.src)
	} else {
		raw = rest[:end+1]
		z.pos += end + 1
	}
	return Token{Type: DoctypeToken, Data: strings.TrimSpace(raw), Raw: raw}
}

// tagName splits "a href='x' id=y" into the lower-cased tag name and the
// rest of the tag body.
func tagName(s string) (name, body string) {
	i := 0
	for i < len(s) && !isSpace(s[i]) {
		i++
	}
	return strings.ToLower(s[:i]), s[i:]
}

// appendAttrs appends the attributes of a tag body (after the name) to dst.
func appendAttrs(dst []Attr, s string) []Attr {
	i := 0
	for i < len(s) {
		for i < len(s) && isSpace(s[i]) {
			i++
		}
		if i >= len(s) {
			break
		}
		keyStart := i
		for i < len(s) && s[i] != '=' && !isSpace(s[i]) {
			i++
		}
		key := strings.ToLower(s[keyStart:i])
		if key == "" {
			i++
			continue
		}
		for i < len(s) && isSpace(s[i]) {
			i++
		}
		val := ""
		if i < len(s) && s[i] == '=' {
			i++
			for i < len(s) && isSpace(s[i]) {
				i++
			}
			if i < len(s) && (s[i] == '"' || s[i] == '\'') {
				q := s[i]
				i++
				valStart := i
				for i < len(s) && s[i] != q {
					i++
				}
				val = s[valStart:i]
				if i < len(s) {
					i++ // closing quote
				}
			} else {
				valStart := i
				for i < len(s) && !isSpace(s[i]) {
					i++
				}
				val = s[valStart:i]
			}
		}
		dst = append(dst, Attr{Key: key, Val: val})
	}
	return dst
}

func isSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\f'
}

func isAlpha(c byte) bool {
	return ('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z')
}
