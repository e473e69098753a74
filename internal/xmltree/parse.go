package xmltree

import (
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"strings"
)

// Default parse limits. They are far beyond anything in the paper's
// datasets (DBLP's deepest path is 6 levels) while still small enough that
// a hostile document cannot exhaust the stack or memory during ingest.
const (
	DefaultMaxDepth      = 512
	DefaultMaxTokenBytes = 1 << 20
)

// ErrLimit is the sentinel under every parse-limit violation. prix.Classify
// maps it to ClassPermanent: the document will blow the same limit on every
// retry, so it must be rejected, not retried.
var ErrLimit = errors.New("xmltree: parse limit exceeded")

// LimitError reports which configured limit a document blew during parsing.
type LimitError struct {
	// What names the limit: "element depth" or "token size".
	What string
	// Limit is the configured bound that was exceeded.
	Limit int64
}

func (e *LimitError) Error() string {
	return fmt.Sprintf("xmltree: %s limit %d exceeded", e.What, e.Limit)
}

func (e *LimitError) Unwrap() error { return ErrLimit }

// ParseError is the typed failure of parsing one document (or one record of
// a multi-record stream): it pins the input byte offset at which the error
// was detected and the zero-based ordinal of the document within its
// stream, so ingest skip reports and prixload diagnostics can point at the
// offending bytes instead of an anonymous decoder message.
type ParseError struct {
	// Offset is the byte offset into the input at which the failure was
	// detected (the decoder's position, so it points at or just past the
	// offending construct).
	Offset int64
	// Ordinal is the zero-based document/record ordinal within the stream.
	Ordinal int
	// Fatal reports that the surrounding stream cannot be re-synchronized
	// past this record: a Cursor that returns a Fatal error cannot skip it
	// and yields no further records.
	Fatal bool
	// Err is the underlying cause (an *xml.SyntaxError, a *LimitError, a
	// structural error...).
	Err error
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("xmltree: document %d at byte %d: %v", e.Ordinal, e.Offset, e.Err)
}

func (e *ParseError) Unwrap() error { return e.Err }

// ParseOptions controls how raw XML is turned into an ordered labeled tree.
type ParseOptions struct {
	// KeepWhitespace keeps whitespace-only character data as value nodes.
	// The paper's trees never contain such nodes, so the default drops them.
	KeepWhitespace bool
	// DropValues discards character data entirely, producing an
	// element-only tree (handy for structural experiments like TREEBANK
	// where the paper's values were encrypted and unused).
	DropValues bool
	// MaxDepth bounds element nesting depth (0 means DefaultMaxDepth,
	// negative disables the bound). Deeply nested documents would otherwise
	// overflow the stack in the recursive passes downstream of parsing.
	MaxDepth int
	// MaxTokenBytes bounds the raw size of a single decoder token — a tag,
	// one character-data run, a comment (0 means DefaultMaxTokenBytes,
	// negative disables the bound). One giant token would otherwise be
	// buffered wholesale before any tree-level accounting can see it.
	MaxTokenBytes int64
}

func (o *ParseOptions) maxDepth() int {
	if o.MaxDepth == 0 {
		return DefaultMaxDepth
	}
	return o.MaxDepth
}

func (o *ParseOptions) maxTokenBytes() int64 {
	if o.MaxTokenBytes == 0 {
		return DefaultMaxTokenBytes
	}
	return o.MaxTokenBytes
}

// treeBuilder folds a decoder's token stream into a Node tree, enforcing
// the depth limit and the attribute/value conventions. It is shared by
// Parse (whole-input documents) and Cursor (one record of a stream).
type treeBuilder struct {
	opts     ParseOptions
	maxDepth int
	root     *Node
	stack    []*Node
}

func newTreeBuilder(opts ParseOptions) *treeBuilder {
	return &treeBuilder{opts: opts, maxDepth: opts.maxDepth()}
}

func (tb *treeBuilder) start(t xml.StartElement) error {
	if tb.maxDepth > 0 && len(tb.stack) >= tb.maxDepth {
		return &LimitError{What: "element depth", Limit: int64(tb.maxDepth)}
	}
	n := &Node{Label: t.Name.Local}
	for _, a := range t.Attr {
		attr := &Node{Label: a.Name.Local}
		if !tb.opts.DropValues {
			attr.AddChild(&Node{Label: a.Value, IsValue: true})
		}
		n.AddChild(attr)
	}
	if len(tb.stack) == 0 {
		if tb.root != nil {
			return fmt.Errorf("xmltree: multiple root elements")
		}
		tb.root = n
	} else {
		tb.stack[len(tb.stack)-1].AddChild(n)
	}
	tb.stack = append(tb.stack, n)
	return nil
}

func (tb *treeBuilder) end(t xml.EndElement) error {
	if len(tb.stack) == 0 {
		return fmt.Errorf("xmltree: unbalanced end element %s", t.Name.Local)
	}
	tb.stack = tb.stack[:len(tb.stack)-1]
	return nil
}

func (tb *treeBuilder) chardata(t xml.CharData) {
	if len(tb.stack) == 0 || tb.opts.DropValues {
		return
	}
	text := string(t)
	if !tb.opts.KeepWhitespace {
		text = strings.TrimSpace(text)
		if text == "" {
			return
		}
	}
	tb.stack[len(tb.stack)-1].AddChild(&Node{Label: text, IsValue: true})
}

// finish validates that exactly one complete element tree was built.
func (tb *treeBuilder) finish() (*Node, error) {
	if tb.root == nil {
		return nil, fmt.Errorf("xmltree: empty document")
	}
	if len(tb.stack) != 0 {
		return nil, fmt.Errorf("xmltree: unclosed elements at EOF")
	}
	return tb.root, nil
}

// tokenLimiter bounds the raw bytes any single decoder token may consume,
// measured as the decoder-offset delta between consecutive tokens.
type tokenLimiter struct {
	last int64
	max  int64
}

func (tl *tokenLimiter) check(off int64) error {
	if tl.max > 0 && off-tl.last > tl.max {
		return &LimitError{What: "token size", Limit: tl.max}
	}
	tl.last = off
	return nil
}

// Parse reads one XML document from r and returns it as a Document with all
// numberings assigned. Attributes become subelements holding a single value
// node, mirroring the paper's treatment ("no special distinction ... between
// elements and attributes"). Failures are reported as *ParseError carrying
// the input byte offset and the document id as its ordinal.
func Parse(id int, r io.Reader, opts ParseOptions) (*Document, error) {
	dec := xml.NewDecoder(r)
	tb := newTreeBuilder(opts)
	tl := tokenLimiter{last: dec.InputOffset(), max: opts.maxTokenBytes()}
	fail := func(err error) (*Document, error) {
		return nil, &ParseError{Offset: dec.InputOffset(), Ordinal: id, Fatal: true, Err: err}
	}
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return fail(fmt.Errorf("xmltree: parse: %w", err))
		}
		// The raw bytes one token consumed are the offset delta; bounding it
		// bounds the decoder's internal buffering per token.
		if err := tl.check(dec.InputOffset()); err != nil {
			return fail(err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			if err := tb.start(t); err != nil {
				return fail(err)
			}
		case xml.EndElement:
			if err := tb.end(t); err != nil {
				return fail(err)
			}
		case xml.CharData:
			tb.chardata(t)
		}
	}
	root, err := tb.finish()
	if err != nil {
		return fail(err)
	}
	return NewDocument(id, root), nil
}

// ParseString is Parse over an in-memory string.
func ParseString(id int, s string) (*Document, error) {
	return Parse(id, strings.NewReader(s), ParseOptions{})
}

// WriteXML renders the document back to XML text. Value nodes become
// character data; everything else becomes an element. It is the inverse of
// Parse for attribute-free documents and is used by the dataset generators
// to report on-disk sizes comparable to the paper's Table 2.
func (d *Document) WriteXML(w io.Writer) error {
	var walk func(n *Node) error
	walk = func(n *Node) error {
		if n.IsValue {
			if err := xml.EscapeText(w, []byte(n.Label)); err != nil {
				return err
			}
			return nil
		}
		if _, err := fmt.Fprintf(w, "<%s>", n.Label); err != nil {
			return err
		}
		for _, c := range n.Children {
			if err := walk(c); err != nil {
				return err
			}
		}
		_, err := fmt.Fprintf(w, "</%s>", n.Label)
		return err
	}
	return walk(d.Root)
}

// XMLSize returns the number of bytes the document occupies when serialized
// by WriteXML.
func (d *Document) XMLSize() int64 {
	var c countWriter
	_ = d.WriteXML(&c)
	return int64(c)
}

type countWriter int64

func (c *countWriter) Write(p []byte) (int, error) {
	*c += countWriter(len(p))
	return len(p), nil
}
