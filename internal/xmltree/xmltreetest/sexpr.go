package xmltreetest

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"

	"repro/internal/xmltree"
)

// FromSExpr builds a document from the compact s-expression form emitted by
// Document.String, e.g. `(a (b "v") (c))`. It exists so tests and examples
// can state small trees without XML boilerplate.
func FromSExpr(id int, s string) (*xmltree.Document, error) {
	p := &sexprParser{src: s}
	p.skipSpace()
	root, err := p.parseNode()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos != len(p.src) {
		return nil, fmt.Errorf("xmltree: trailing input at %d in %q", p.pos, s)
	}
	return xmltree.NewDocument(id, root), nil
}

// MustFromSExpr is FromSExpr that panics on malformed input; for tests.
func MustFromSExpr(id int, s string) *xmltree.Document {
	d, err := FromSExpr(id, s)
	if err != nil {
		panic(err)
	}
	return d
}

type sexprParser struct {
	src string
	pos int
}

func (p *sexprParser) skipSpace() {
	for p.pos < len(p.src) && unicode.IsSpace(rune(p.src[p.pos])) {
		p.pos++
	}
}

func (p *sexprParser) parseNode() (*xmltree.Node, error) {
	p.skipSpace()
	if p.pos >= len(p.src) {
		return nil, fmt.Errorf("xmltree: unexpected end of s-expression")
	}
	switch p.src[p.pos] {
	case '(':
		p.pos++
		p.skipSpace()
		label := p.parseAtom()
		if label == "" {
			return nil, fmt.Errorf("xmltree: missing label at %d", p.pos)
		}
		n := &xmltree.Node{Label: label}
		for {
			p.skipSpace()
			if p.pos >= len(p.src) {
				return nil, fmt.Errorf("xmltree: unclosed list")
			}
			if p.src[p.pos] == ')' {
				p.pos++
				return n, nil
			}
			c, err := p.parseNode()
			if err != nil {
				return nil, err
			}
			n.AddChild(c)
		}
	case '"':
		start := p.pos
		p.pos++
		for p.pos < len(p.src) && p.src[p.pos] != '"' {
			if p.src[p.pos] == '\\' {
				p.pos++
			}
			p.pos++
		}
		if p.pos >= len(p.src) {
			return nil, fmt.Errorf("xmltree: unterminated string literal")
		}
		p.pos++
		val, err := strconv.Unquote(p.src[start:p.pos])
		if err != nil {
			return nil, fmt.Errorf("xmltree: bad string literal %s: %w", p.src[start:p.pos], err)
		}
		return &xmltree.Node{Label: val, IsValue: true}, nil
	default:
		// Bare atom: a leaf element with no children.
		label := p.parseAtom()
		if label == "" {
			return nil, fmt.Errorf("xmltree: unexpected character %q at %d", p.src[p.pos], p.pos)
		}
		return &xmltree.Node{Label: label}, nil
	}
}

func (p *sexprParser) parseAtom() string {
	start := p.pos
	for p.pos < len(p.src) && !unicode.IsSpace(rune(p.src[p.pos])) &&
		!strings.ContainsRune(`()"`, rune(p.src[p.pos])) {
		p.pos++
	}
	return p.src[start:p.pos]
}
