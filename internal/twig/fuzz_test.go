package twig

import (
	"fmt"
	"reflect"
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
	`//a[./b][./c="x"][./d/e][@f="y"][text()="z"]/g//h/*/i`,
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

// TestParseAllocs: a query of at most 16 nodes is two objects — its node
// slab, and its Query with the child-pointer slab — on every seed the parser
// accepts. A literal with escapes is left out: its text is what
// strconv.Unquote allocates.
func TestParseAllocs(t *testing.T) {
	accepted := 0
	for _, src := range parseSeeds {
		q, err := Parse(src)
		if err != nil || q.Size() > 16 || strings.Contains(src, `\`) {
			continue
		}
		accepted++
		if n := testing.AllocsPerRun(100, func() { _, _ = Parse(src) }); n > 2 {
			t.Errorf("%q: Parse allocates %.0f objects, want <= 2", src, n)
		}
	}
	if accepted < 10 {
		t.Fatalf("only %d seeds parsed", accepted)
	}
}

// referenceParse is the parser as it was first written: one &Node per step
// and value, each child list grown by append. Parse must build the same
// tree.
func referenceParse(src string) (*Query, error) {
	p := &refParser{parser: parser{src: src}}
	found, desc := p.parseSep()
	if !found {
		return nil, fmt.Errorf("query must start with / or //")
	}
	es := edgeState{}
	es.sep(desc)
	root, rootEdge, err := p.path(&es, false)
	if err != nil {
		return nil, err
	}
	if p.pos != len(p.src) {
		return nil, fmt.Errorf("trailing input at %d", p.pos)
	}
	return &Query{Root: root, RootEdge: rootEdge, Source: src}, nil
}

// refParser borrows the lexer (eat, parseSep, parseName, parseString) and
// builds nodes one by one.
type refParser struct{ parser }

func (p *refParser) path(es *edgeState, inPredicate bool) (*Node, Edge, error) {
	var first, cur *Node
	var firstEdge Edge
	finish := func() (*Node, Edge, error) {
		if es.hops != 0 || es.unbounded || first == nil {
			return nil, Edge{}, fmt.Errorf("bad path end at %d", p.pos)
		}
		return first, firstEdge, nil
	}
	for {
		if p.eat("*") {
			if p.pos < len(p.src) && p.src[p.pos] == '[' {
				return nil, Edge{}, fmt.Errorf("predicate on '*' at %d", p.pos)
			}
			es.star()
		} else {
			p.eat("@")
			name := p.parseName()
			if name == "" {
				return nil, Edge{}, fmt.Errorf("expected name or '*' at %d", p.pos)
			}
			n := &Node{Label: name, Edge: es.edge()}
			if first == nil {
				first, firstEdge = n, n.Edge
			}
			if cur != nil {
				cur.Children = append(cur.Children, n)
			}
			cur = n
			*es = edgeState{}
			for p.pos < len(p.src) && p.src[p.pos] == '[' {
				if err := p.predicate(cur); err != nil {
					return nil, Edge{}, err
				}
			}
		}
		if inPredicate && p.pos < len(p.src) && (p.src[p.pos] == ']' || p.src[p.pos] == '=') {
			return finish()
		}
		found, desc := p.parseSep()
		if !found {
			if inPredicate {
				return nil, Edge{}, fmt.Errorf("expected separator at %d", p.pos)
			}
			return finish()
		}
		es.sep(desc)
	}
}

func (p *refParser) predicate(owner *Node) error {
	value := func() (*Node, error) {
		s, err := p.parseString()
		return &Node{Label: s, IsValue: true, Edge: Edge{Min: 1, Max: 1}}, err
	}
	if !p.eat("[") {
		return fmt.Errorf("expected '[' at %d", p.pos)
	}
	switch {
	case p.eat("text()"):
		if !p.eat("=") {
			return fmt.Errorf("expected '=' at %d", p.pos)
		}
		v, err := value()
		if err != nil {
			return err
		}
		owner.Children = append(owner.Children, v)
	case p.eat("@"):
		name := p.parseName()
		if name == "" {
			return fmt.Errorf("expected attribute name at %d", p.pos)
		}
		attr := &Node{Label: name, Edge: Edge{Min: 1, Max: 1}}
		if p.eat("=") {
			v, err := value()
			if err != nil {
				return err
			}
			attr.Children = append(attr.Children, v)
		}
		owner.Children = append(owner.Children, attr)
	case p.eat("."):
		found, desc := p.parseSep()
		if !found {
			return fmt.Errorf("expected separator after '.' at %d", p.pos)
		}
		es := edgeState{}
		es.sep(desc)
		child, _, err := p.path(&es, true)
		if err != nil {
			return err
		}
		if p.eat("=") {
			v, err := value()
			if err != nil {
				return err
			}
			deep := child
			for len(deep.Children) > 0 && !deep.Children[len(deep.Children)-1].IsValue {
				deep = deep.Children[len(deep.Children)-1]
			}
			deep.Children = append(deep.Children, v)
		}
		owner.Children = append(owner.Children, child)
	default:
		return fmt.Errorf("expected '.' or text() at %d", p.pos)
	}
	if !p.eat("]") {
		return fmt.Errorf("expected ']' at %d", p.pos)
	}
	return nil
}

// preorder lists a tree's nodes in preorder.
func preorder(n *Node, out []*Node) []*Node {
	out = append(out, n)
	for _, c := range n.Children {
		out = preorder(c, out)
	}
	return out
}

// checkSlabTree is FuzzParseQuery's slab property for an accepted src: Parse
// builds the reference parser's tree, accepting and rejecting alike, and
// appending a child to any node of it leaves every other node as it was.
func checkSlabTree(t *testing.T, src string, q *Query, err error) {
	ref, refErr := referenceParse(src)
	if (err == nil) != (refErr == nil) {
		t.Fatalf("%q: Parse error %v, reference parser error %v", src, err, refErr)
	}
	if err != nil {
		return
	}
	if !reflect.DeepEqual(q, ref) {
		t.Fatalf("%q: Parse builds %s, reference parser %s", src, q, ref)
	}
	for k := range preorder(q.Root, nil) {
		got, _ := Parse(src)
		want, _ := referenceParse(src)
		extra := &Node{Label: "appended"}
		n, m := preorder(got.Root, nil)[k], preorder(want.Root, nil)[k]
		n.Children = append(n.Children, extra)
		m.Children = append(m.Children, extra)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%q: appending a child to node %d (%q) changed another node: %s, want %s",
				src, k, n.Label, got, want)
		}
	}
}

// FuzzParseQuery feeds the parser arbitrary byte strings at a service
// boundary (POST /query bodies reach it verbatim). Properties checked:
// no panic on any input; Parse accepts exactly what the reference parser
// accepts, building the same tree, and its slabs keep every node's children
// apart; and for every accepted query the canonical form String() reparses
// to a fixed point — the cache key and the wire form of internal/server rely
// on that stability.
func FuzzParseQuery(f *testing.F) {
	for _, seed := range parseSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		q, err := Parse(src)
		checkSlabTree(t, src, q, err)
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
