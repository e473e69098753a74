package xmltree

import (
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"strings"
)

// CursorOptions configures an incremental record cursor.
type CursorOptions struct {
	// Parse carries the per-record tree-building limits and conventions.
	Parse ParseOptions
	// Split treats the input as one wrapper element whose direct children
	// are the records (the PubMedCentral shape: <collection><article>...
	// </article><article>...</article></collection>). When false the input
	// is a stream of complete documents back to back, each root element
	// yielding one record.
	Split bool
	// ResyncTag, when non-empty, lets the cursor recover from damage that
	// destroys a record's start tag: it re-synchronizes by scanning the raw
	// bytes for the next "<ResyncTag" occurrence. When empty the cursor
	// infers one from the last well-formed record's tag (homogeneous
	// collections resync without configuration); recovery is also possible
	// whenever the malformed record's own start tag was seen (the scan
	// targets its closing tag too).
	ResyncTag string
}

// Cursor reads an XML input incrementally, yielding one record (a complete
// Document) at a time and never holding more than one record's tree in
// memory. It is the parse stage of streaming bulk ingest.
//
// A malformed record surfaces as a *ParseError carrying its byte offset
// and ordinal; if the cursor can re-synchronize past the damage (always,
// for in-record structural and depth-limit violations; via a raw byte scan
// for decoder-breaking syntax errors when the input is seekable), the next
// Next call continues with the following record, so callers implement
// skip-and-report by counting *ParseError results. A *ParseError with
// Fatal set means the stream cannot continue.
//
// Pos reports the record boundary (byte offset + ordinal) the next record
// starts from.
type Cursor struct {
	src    io.Reader
	seeker io.ReadSeeker // nil when the input cannot seek (no resync)
	opts   CursorOptions

	dec     *xml.Decoder
	base    int64 // absolute offset of the byte the current decoder started at
	ordinal int   // ordinal of the next record

	wrapper  string // wrapper element tag (Split mode, once seen)
	lastRec  string // tag of the last record whose subtree closed cleanly
	inWrap   bool   // wrapper start element has been consumed
	wrapLost bool   // decoder was restarted inside the wrapper: its end tag
	// now surfaces as an "unexpected end element" syntax error
	done  bool
	fatal *ParseError
}

// NewCursor starts a cursor at the beginning of r. If r is an
// io.ReadSeeker the cursor can re-synchronize past decoder-breaking
// records.
func NewCursor(r io.Reader, opts CursorOptions) *Cursor {
	c := &Cursor{src: r, opts: opts}
	c.seeker, _ = r.(io.ReadSeeker)
	c.dec = xml.NewDecoder(r)
	return c
}

// Pos returns the absolute byte offset of the next record boundary and the
// ordinal the next record will receive. It is meaningful after Next
// returned a record or a skippable *ParseError.
func (c *Cursor) Pos() (offset int64, ordinal int) {
	return c.base + c.dec.InputOffset(), c.ordinal
}

// Next returns the next record. It returns io.EOF at the end of the
// stream, a *ParseError for a malformed record (skippable unless Fatal),
// and other errors for I/O failures.
func (c *Cursor) Next() (*Document, error) {
	if c.fatal != nil {
		return nil, c.fatal
	}
	if c.done {
		return nil, io.EOF
	}
	for {
		lastOff := c.dec.InputOffset()
		tok, err := c.dec.Token()
		if err == io.EOF {
			// In split mode a truncated input can end before the wrapper
			// close; all complete records were already delivered, so this
			// is the end of the stream either way.
			c.done = true
			return nil, io.EOF
		}
		if err != nil {
			if c.wrapLost {
				if name, ok := strayEndName(err); ok && name == c.wrapper {
					// The wrapper's close tag, seen by a decoder that was
					// restarted inside the wrapper: the stream is over.
					c.done = true
					return nil, io.EOF
				}
			}
			return nil, c.fail(c.ordinal, "", c.base+c.dec.InputOffset(),
				fmt.Errorf("xmltree: parse: %w", err))
		}
		switch t := tok.(type) {
		case xml.StartElement:
			if c.opts.Split && !c.inWrap {
				c.wrapper = t.Name.Local
				c.inWrap = true
				continue
			}
			return c.parseRecord(t, c.base+lastOff)
		case xml.EndElement:
			if c.opts.Split && c.inWrap {
				// The wrapper's close tag: end of the record region.
				c.done = true
				return nil, io.EOF
			}
		}
		// Character data, comments and PIs between records are ignored.
	}
}

// parseRecord consumes one record subtree whose start element has already
// been read. On in-record damage that leaves the decoder healthy (depth
// limit, structural violations) it drains the rest of the subtree so the
// stream stays aligned; decoder-breaking damage goes through resync.
func (c *Cursor) parseRecord(start xml.StartElement, startOff int64) (*Document, error) {
	ord := c.ordinal
	tb := newTreeBuilder(c.opts.Parse)
	tl := tokenLimiter{last: c.dec.InputOffset(), max: c.opts.Parse.maxTokenBytes()}
	var broken error // first tree-level violation; the record is drained, not built
	var brokenOff int64
	if err := tb.start(start); err != nil {
		broken, brokenOff = err, startOff
	}
	for depth := 1; depth > 0; {
		tok, err := c.dec.Token()
		if err != nil {
			// Mid-record decoder failure (syntax error or unexpected EOF):
			// the decoder is dead, only a raw-byte resync can continue.
			cause := broken
			if cause == nil {
				cause = fmt.Errorf("xmltree: parse: %w", err)
			}
			return nil, c.fail(ord, start.Name.Local, c.base+c.dec.InputOffset(), cause)
		}
		if lerr := tl.check(c.dec.InputOffset()); lerr != nil {
			// A token-size violation means draining would keep buffering
			// oversized tokens, defeating the bound; resync instead.
			if broken == nil {
				broken, brokenOff = lerr, c.base+c.dec.InputOffset()
			}
			return nil, c.fail(ord, start.Name.Local, brokenOff, broken)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			depth++
			if broken == nil {
				if err := tb.start(t); err != nil {
					broken, brokenOff = err, c.base+c.dec.InputOffset()
				}
			}
		case xml.EndElement:
			depth--
			if broken == nil {
				if err := tb.end(t); err != nil {
					broken, brokenOff = err, c.base+c.dec.InputOffset()
				}
			}
		case xml.CharData:
			if broken == nil {
				tb.chardata(t)
			}
		}
	}
	if broken != nil {
		// The record was drained: the stream is positioned at the next
		// record boundary, so the error is skippable in place. The subtree
		// closed cleanly, so its tag is trustworthy as a resync target.
		c.lastRec = start.Name.Local
		c.ordinal++
		return nil, &ParseError{Offset: brokenOff, Ordinal: ord, Err: broken}
	}
	root, err := tb.finish()
	if err != nil {
		return nil, c.fail(ord, start.Name.Local, c.base+c.dec.InputOffset(), err)
	}
	c.lastRec = start.Name.Local
	c.ordinal++
	return NewDocument(ord, root), nil
}

// fail builds the record's *ParseError and attempts to re-synchronize the
// stream past the damage. On success the error is skippable; otherwise it
// is Fatal and sticky.
func (c *Cursor) fail(ord int, recTag string, off int64, cause error) *ParseError {
	perr := &ParseError{Offset: off, Ordinal: ord, Err: cause}
	if c.resync(recTag, off) {
		c.ordinal = ord + 1
		return perr
	}
	perr.Fatal = true
	c.fatal = perr
	return perr
}

// resync scans the raw input from fromAbs for the next record boundary:
// the malformed record's closing tag (resuming after it), a configured or
// inferred ResyncTag's opening tag (resuming at it), or the wrapper's
// closing tag (ending the stream). Returns false when the input cannot seek
// or no boundary exists.
func (c *Cursor) resync(recTag string, fromAbs int64) bool {
	if c.seeker == nil {
		return false
	}
	type target struct {
		pat   string
		kind  int // 0 = record close (resume after), 1 = record open (resume at), 2 = wrapper close (done)
		after bool
	}
	var targets []target
	if recTag != "" {
		targets = append(targets, target{pat: "</" + recTag, kind: 0})
	}
	resyncTag := c.opts.ResyncTag
	if resyncTag == "" {
		// Infer the record tag from the last clean record: a malformed record
		// with a foreign or destroyed tag must not swallow the tail of a
		// homogeneous collection.
		resyncTag = c.lastRec
	}
	if resyncTag != "" {
		targets = append(targets, target{pat: "<" + resyncTag, kind: 1})
	}
	if c.opts.Split && c.wrapper != "" {
		targets = append(targets, target{pat: "</" + c.wrapper, kind: 2})
	}
	if len(targets) == 0 {
		return false
	}
	if _, err := c.seeker.Seek(fromAbs, io.SeekStart); err != nil {
		return false
	}
	// Chunked scan with an overlap so patterns straddling chunk borders are
	// still found. A pattern match must be followed by a delimiter byte so
	// "<rec" does not fire inside "<record>".
	const chunk = 64 << 10
	var maxPat int
	for _, t := range targets {
		if len(t.pat) > maxPat {
			maxPat = len(t.pat)
		}
	}
	buf := make([]byte, 0, chunk+maxPat+1)
	bufStart := fromAbs
	for {
		n, rerr := io.ReadFull(c.seeker, buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		bestIdx, bestKind, bestLen := -1, 0, 0
		for _, t := range targets {
			limit := len(buf)
			if rerr == nil {
				// Keep a tail so a boundary-straddling match (pattern plus
				// its delimiter) is seen whole in the next chunk.
				limit = len(buf) - len(t.pat) - 1
				if limit < 0 {
					limit = 0
				}
			}
			for i := 0; i < limit; {
				j := strings.Index(string(buf[i:limit]), t.pat)
				if j < 0 {
					break
				}
				at := i + j
				if end := at + len(t.pat); end >= len(buf) || isTagDelim(buf[end], t.kind) {
					if bestIdx == -1 || at < bestIdx {
						bestIdx, bestKind, bestLen = at, t.kind, len(t.pat)
					}
					break
				}
				i = at + 1
			}
		}
		if bestIdx >= 0 {
			abs := bufStart + int64(bestIdx)
			switch bestKind {
			case 2:
				c.done = true
				return true
			case 0:
				// Resume after the closing tag's '>'.
				gt := bytesIndexByteFrom(buf, bestIdx+bestLen, '>')
				if gt < 0 {
					// The '>' sits beyond this chunk; resume at the match
					// and let the decoder surface it as a stray end (split
					// wrapLost handling) — overwhelmingly unlikely.
					return c.restartAt(abs)
				}
				return c.restartAt(bufStart + int64(gt) + 1)
			default:
				return c.restartAt(abs)
			}
		}
		if rerr != nil {
			// No boundary before EOF: everything after the malformed record
			// is unparseable. The record itself is still skippable — the
			// stream simply ends here.
			c.done = true
			return true
		}
		// Slide: keep the last maxPat bytes as overlap.
		keep := maxPat + 1
		if keep > len(buf) {
			keep = len(buf)
		}
		bufStart += int64(len(buf) - keep)
		copy(buf, buf[len(buf)-keep:])
		buf = buf[:keep]
	}
}

// restartAt seeks the input to abs and restarts the decoder there.
func (c *Cursor) restartAt(abs int64) bool {
	if _, err := c.seeker.Seek(abs, io.SeekStart); err != nil {
		return false
	}
	c.dec = xml.NewDecoder(c.src)
	c.base = abs
	if c.opts.Split {
		c.wrapLost = true
	}
	return true
}

// isTagDelim reports whether b can follow a matched tag name: for closing
// tags whitespace or '>', for opening tags also '/' (self-closing) and
// attribute whitespace.
func isTagDelim(b byte, kind int) bool {
	switch b {
	case ' ', '\t', '\r', '\n', '>':
		return true
	case '/':
		return kind == 1
	}
	return false
}

func bytesIndexByteFrom(b []byte, from int, c byte) int {
	for i := from; i < len(b); i++ {
		if b[i] == c {
			return i
		}
	}
	return -1
}

// strayEndName extracts the element name from an "unexpected end element"
// decoder error — how a wrapper's close tag surfaces to a decoder that was
// restarted inside the wrapper after a resync.
func strayEndName(err error) (string, bool) {
	var se *xml.SyntaxError
	if !errors.As(err, &se) {
		return "", false
	}
	const pfx = "unexpected end element </"
	i := strings.Index(se.Msg, pfx)
	if i < 0 {
		return "", false
	}
	rest := se.Msg[i+len(pfx):]
	j := strings.IndexByte(rest, '>')
	if j < 0 {
		return "", false
	}
	return rest[:j], true
}
