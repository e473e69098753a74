package xmltree

import (
	"errors"
	"io"
	"strings"
	"testing"
)

// readerOnly hides Seek so cursor fallback paths can be exercised.
type readerOnly struct{ r io.Reader }

func (r readerOnly) Read(p []byte) (int, error) { return r.r.Read(p) }

func collect(t *testing.T, c *Cursor) (docs []*Document, skips []*ParseError) {
	t.Helper()
	for {
		d, err := c.Next()
		if err == io.EOF {
			return docs, skips
		}
		var perr *ParseError
		if errors.As(err, &perr) {
			if perr.Fatal {
				t.Fatalf("fatal parse error: %v", perr)
			}
			skips = append(skips, perr)
			continue
		}
		if err != nil {
			t.Fatalf("cursor: %v", err)
		}
		docs = append(docs, d)
	}
}

func TestCursorSplitStream(t *testing.T) {
	input := `<collection>
		<rec><a>1</a></rec>
		<rec><b x="y">2</b></rec>
		<rec/>
	</collection>`
	c := NewCursor(strings.NewReader(input), CursorOptions{Split: true})
	docs, skips := collect(t, c)
	if len(skips) != 0 {
		t.Fatalf("skips = %v", skips)
	}
	if len(docs) != 3 {
		t.Fatalf("got %d records, want 3", len(docs))
	}
	if c.wrapper != "collection" {
		t.Fatalf("wrapper = %q", c.wrapper)
	}
	if docs[0].ID != 0 || docs[2].ID != 2 {
		t.Fatalf("ids = %d, %d", docs[0].ID, docs[2].ID)
	}
	if docs[1].Root.Label != "rec" || len(docs[1].Root.Children) != 1 {
		t.Fatalf("record 1 shape: %v", docs[1].Root)
	}
}

func TestCursorUnsplitStream(t *testing.T) {
	input := `<a>one</a><b>two</b><c>three</c>`
	c := NewCursor(strings.NewReader(input), CursorOptions{})
	docs, skips := collect(t, c)
	if len(skips) != 0 || len(docs) != 3 {
		t.Fatalf("docs=%d skips=%d", len(docs), len(skips))
	}
	if docs[2].Root.Label != "c" {
		t.Fatalf("root = %q", docs[2].Root.Label)
	}
}

func TestCursorSkipsDepthLimitViolation(t *testing.T) {
	input := `<w><rec><a><a><a>deep</a></a></a></rec><rec><ok/></rec></w>`
	c := NewCursor(strings.NewReader(input), CursorOptions{
		Split: true,
		Parse: ParseOptions{MaxDepth: 3},
	})
	docs, skips := collect(t, c)
	if len(skips) != 1 || !errors.Is(skips[0], ErrLimit) {
		t.Fatalf("skips = %v, want one ErrLimit", skips)
	}
	if skips[0].Ordinal != 0 {
		t.Fatalf("skip ordinal = %d", skips[0].Ordinal)
	}
	if len(docs) != 1 || docs[0].Root.Children[0].Label != "ok" {
		t.Fatalf("docs = %v", docs)
	}
	// The surviving record keeps its stream ordinal.
	if docs[0].ID != 1 {
		t.Fatalf("surviving record id = %d, want 1", docs[0].ID)
	}
}

func TestCursorResyncsAfterSyntaxError(t *testing.T) {
	input := `<w><rec><x></y></rec><rec><ok/></rec><rec><fine/></rec></w>`
	c := NewCursor(strings.NewReader(input), CursorOptions{Split: true})
	docs, skips := collect(t, c)
	if len(skips) != 1 {
		t.Fatalf("skips = %v", skips)
	}
	if skips[0].Offset <= 0 {
		t.Fatalf("skip offset = %d, want > 0", skips[0].Offset)
	}
	if len(docs) != 2 {
		t.Fatalf("got %d docs, want 2 (have %v)", len(docs), docs)
	}
	if docs[0].Root.Children[0].Label != "ok" || docs[1].Root.Children[0].Label != "fine" {
		t.Fatalf("unexpected surviving records")
	}
}

func TestCursorSyntaxErrorFatalWithoutSeeker(t *testing.T) {
	input := `<w><rec><x></y></rec><rec><ok/></rec></w>`
	c := NewCursor(readerOnly{strings.NewReader(input)}, CursorOptions{Split: true})
	var perr *ParseError
	for {
		_, err := c.Next()
		if err == io.EOF {
			t.Fatalf("stream ended without the expected fatal error")
		}
		if errors.As(err, &perr) {
			break
		}
	}
	if !perr.Fatal {
		t.Fatalf("expected fatal error on unseekable input, got %v", perr)
	}
	// Sticky: the same error comes back.
	if _, err := c.Next(); !errors.Is(err, perr) {
		t.Fatalf("fatal error not sticky: %v", err)
	}
}

func TestCursorResyncTagRecoversLostStartTag(t *testing.T) {
	// Garbage destroys one record's start tag entirely.
	input := `<w><rec><a/></rec><<<garbage<rec><b/></rec></w>`
	c := NewCursor(strings.NewReader(input), CursorOptions{Split: true, ResyncTag: "rec"})
	docs, skips := collect(t, c)
	if len(skips) != 1 {
		t.Fatalf("skips = %v", skips)
	}
	if len(docs) != 2 {
		t.Fatalf("docs = %d, want 2", len(docs))
	}
	if docs[1].Root.Children[0].Label != "b" {
		t.Fatalf("second record = %v", docs[1].Root)
	}
}

// TestCursorPos: after a record, Pos names the byte the next record starts
// at and the ordinal it will receive — what a transform rejection reports.
func TestCursorPos(t *testing.T) {
	input := `<w><rec><a>1</a></rec><rec><b>2</b></rec><rec><c>3</c></rec></w>`
	c := NewCursor(strings.NewReader(input), CursorOptions{Split: true})
	d0, err := c.Next()
	if err != nil || d0.Root.Children[0].Label != "a" {
		t.Fatalf("first record: %v %v", d0, err)
	}
	off, ord := c.Pos()
	if want := int64(strings.Index(input, "<rec><b>")); off != want || ord != 1 {
		t.Fatalf("Pos = %d, %d; want %d, 1", off, ord, want)
	}
	docs, skips := collect(t, c)
	if len(skips) != 0 || len(docs) != 2 || docs[0].ID != 1 || docs[1].ID != 2 {
		t.Fatalf("rest: docs=%d skips=%d", len(docs), len(skips))
	}
}

func TestCursorTokenSizeViolationResyncs(t *testing.T) {
	big := strings.Repeat("x", 4096)
	input := `<w><rec><a>` + big + `</a></rec><rec><ok/></rec></w>`
	c := NewCursor(strings.NewReader(input), CursorOptions{
		Split: true,
		Parse: ParseOptions{MaxTokenBytes: 1024},
	})
	docs, skips := collect(t, c)
	if len(skips) != 1 || !errors.Is(skips[0], ErrLimit) {
		t.Fatalf("skips = %v", skips)
	}
	if len(docs) != 1 || docs[0].Root.Children[0].Label != "ok" {
		t.Fatalf("docs = %v", docs)
	}
}

func TestCursorInfersResyncTagFromPriorRecords(t *testing.T) {
	// The malformed record's own tag never closes and no ResyncTag is
	// configured; the cursor must infer one from the preceding clean records
	// instead of declaring the stream over at the wrapper close — otherwise
	// every record after the damage would be silently dropped.
	input := `<w><rec><a>1</a></rec><rec><a>2</a></rec>` +
		`<bogus></mismatch>` +
		`<rec><a>3</a></rec><rec><a>4</a></rec></w>`
	c := NewCursor(strings.NewReader(input), CursorOptions{Split: true})
	docs, skips := collect(t, c)
	if len(skips) != 1 || skips[0].Ordinal != 2 {
		t.Fatalf("skips = %v", skips)
	}
	if len(docs) != 4 {
		t.Fatalf("got %d docs, want 4 (records after the damage must survive)", len(docs))
	}
	for i, d := range docs {
		want := []string{"1", "2", "3", "4"}[i]
		if got := d.Root.Children[0].Children[0].Label; got != want {
			t.Fatalf("doc %d value = %q, want %q", i, got, want)
		}
	}
}

func TestCursorEmptyAndWhitespaceOnly(t *testing.T) {
	c := NewCursor(strings.NewReader("  \n "), CursorOptions{Split: true})
	if _, err := c.Next(); err != io.EOF {
		t.Fatalf("whitespace-only input: %v, want EOF", err)
	}
	c = NewCursor(strings.NewReader("<w></w>"), CursorOptions{Split: true})
	if _, err := c.Next(); err != io.EOF {
		t.Fatalf("empty wrapper: %v, want EOF", err)
	}
}

func TestParseErrorCarriesOffsetAndOrdinal(t *testing.T) {
	_, err := Parse(7, strings.NewReader("<a><b></a>"), ParseOptions{})
	var perr *ParseError
	if !errors.As(err, &perr) {
		t.Fatalf("err = %T %v, want *ParseError", err, err)
	}
	if perr.Ordinal != 7 {
		t.Fatalf("ordinal = %d, want 7", perr.Ordinal)
	}
	if perr.Offset <= 0 {
		t.Fatalf("offset = %d, want > 0", perr.Offset)
	}
}
