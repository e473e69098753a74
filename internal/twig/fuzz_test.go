package twig

import (
	"fmt"
	"strings"
	"testing"
)

// referenceString is the canonical rendering as it was first written, on
// fmt and strings.Builder. Query.String must keep producing these bytes:
// they are cache keys and the echoed wire form.
func referenceString(q *Query) string {
	var b strings.Builder
	refEdge := func(e Edge) string {
		if e.Max != Unbounded && e.Max != e.Min {
			return fmt.Sprintf("/{%d,%d}", e.Min, e.Max)
		}
		sep := "/"
		if e.Max == Unbounded {
			sep = "//"
		}
		return sep + strings.Repeat("*/", max(e.Min-1, 0))
	}
	var node func(n *Node)
	node = func(n *Node) {
		if n.IsValue {
			fmt.Fprintf(&b, "%q", n.Label)
			return
		}
		b.WriteString(n.Label)
		for i, c := range n.Children {
			switch {
			case i == len(n.Children)-1 && !c.IsValue:
				b.WriteString(refEdge(c.Edge))
				node(c)
			case c.IsValue:
				fmt.Fprintf(&b, "[text()=%q]", c.Label)
			default:
				b.WriteString("[." + refEdge(c.Edge))
				node(c)
				b.WriteString("]")
			}
		}
	}
	b.WriteString(refEdge(q.RootEdge))
	node(q.Root)
	return b.String()
}

var parseSeeds = []string{
	`//a`,
	`/a/b/c`,
	`//inproceedings[./author="Jim Gray"][./year="1990"]`,
	`//Entry[./Org="Piroplasmida"][.//Author]//from`,
	`//a[./b/c]/d`,
	`//a[text()="v"]`,
	`/a/*/b`,
	`//a//*/b`,
	`/*/b`,
	``,
	`//`,
	`a`,
	`//a[`,
	`//a[./b="unterminated`,
	`//a]`,
	`//*[./b]`,
	"//a\x00b",
	`//a[.//b="x"]//c[./d]/e`,
	"//a[./b=\"q\\\"uote\\n\u00e9\x01\"]",
}

var stringSink string

// TestQueryStringAllocs: rendering the canonical form costs the string and
// at most one buffer (none when the form fits the 256 bytes String renders
// into on the stack), on every seed the parser accepts — and hand-built edges
// outside the grammar render as they always did.
func TestQueryStringAllocs(t *testing.T) {
	accepted := 0
	for _, src := range parseSeeds {
		q, err := Parse(src)
		if err != nil {
			continue
		}
		accepted++
		if got, want := q.String(), referenceString(q); got != want {
			t.Errorf("%q renders %q, reference %q", src, got, want)
		}
		if n := testing.AllocsPerRun(100, func() { stringSink = q.String() }); n > 2 {
			t.Errorf("%q: String allocates %.0f objects, want <= 2", src, n)
		}
	}
	if accepted < 10 {
		t.Fatalf("only %d seeds parsed", accepted)
	}
	long := MustParse(`//a[./b="` + strings.Repeat("x", 600) + `"]/c`)
	if n := testing.AllocsPerRun(100, func() { stringSink = long.String() }); n > 2 {
		t.Errorf("long query: String allocates %.0f objects, want <= 2", n)
	}
	odd := &Query{RootEdge: Edge{Min: 2, Max: 5}, Root: &Node{Label: "a", Children: []*Node{{Label: "b", Edge: Edge{Min: 0, Max: 0}}}}}
	if got, want := odd.String(), referenceString(odd); got != want {
		t.Errorf("hand-built edges render %q, reference %q", got, want)
	}
}

// FuzzParseQuery feeds the parser arbitrary byte strings at a service
// boundary (POST /query bodies reach it verbatim). Properties checked:
// no panic on any input, and for every accepted query the canonical form
// String() reparses to a fixed point — the cache key and the wire form of
// internal/server rely on that stability.
func FuzzParseQuery(f *testing.F) {
	for _, seed := range parseSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		q, err := Parse(src)
		if err != nil {
			return // rejected input: the only requirement is no panic
		}
		canon := q.String()
		if ref := referenceString(q); canon != ref {
			t.Fatalf("%q renders %q, reference rendering %q", src, canon, ref)
		}
		q2, err := Parse(canon)
		if err != nil {
			t.Fatalf("accepted %q but rejected its canonical form %q: %v", src, canon, err)
		}
		if got := q2.String(); got != canon {
			t.Fatalf("canonical form not a fixed point: %q -> %q -> %q", src, canon, got)
		}
		if q.Size() != q2.Size() {
			t.Fatalf("reparse of %q changed size: %d vs %d", src, q.Size(), q2.Size())
		}
	})
}
