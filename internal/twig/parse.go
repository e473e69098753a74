package twig

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// Parse parses the XPath subset used throughout the paper:
//
//	query     = ("/" | "//") step { ("/" | "//") step }
//	step      = nametest { predicate }
//	nametest  = NAME | "*"
//	predicate = "[" "." ("/" | "//") relpath [ "=" STRING ] "]"
//	          | "[" "text()" "=" STRING "]"
//	relpath   = step { ("/" | "//") step }
//
// '*' steps carry no predicates and are collapsed into the adjacent edge's
// depth constraint, following §4.5's treatment ("transformed to its Prüfer
// sequences by ignoring the wildcards"); a branching '*' is rejected.
//
// A query of up to slabKids+1 nodes is two heap objects (plus what
// strconv.Unquote spends on a string literal with escapes): its nodes, in
// one []Node slab, and the Query itself together with the []*Node slab
// every Children slice is cut from. Each Children slice is capped at its own
// length, so a caller appending to one node's children reallocates them
// rather than writing into a sibling's.
func Parse(src string) (*Query, error) {
	n := nodeBound(src)
	// The parse records the tree as parent links and child counts, on the
	// stack for a query the slabs co-allocate; link lays the slabs out from
	// them once the whole text has been read.
	var parentBuf, kidsBuf [slabKids + 1]int32
	l := links{parents: parentBuf[:], nkids: kidsBuf[:]}
	if n > len(l.parents) {
		l = links{parents: make([]int32, n), nkids: make([]int32, n)}
	}
	p := parser{src: src, nodes: make([]Node, n)}
	rootEdge, err := p.parseQuery(&l)
	if err != nil {
		return nil, fmt.Errorf("twig: parse %q: %w", src, err)
	}
	q := p.link(&l, rootEdge)
	q.Source = src
	return q, nil
}

// MustParse is Parse that panics on error, for tests and fixtures.
func MustParse(src string) *Query {
	q, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return q
}

// slabKids is the largest child-pointer slab allocated together with its
// Query, for queries of up to 16 nodes; queries of up to 8 nodes get a slab
// half that size.
const slabKids = 15

// querySlab is a parsed query and its child-pointer slab, an array K, in
// one object.
type querySlab[K any] struct {
	q    Query
	kids K
}

// nodeBound is the number of nodes Parse makes of src when it accepts it,
// and an upper bound on those it makes before rejecting it: one per
// separator run not followed by '*' (a step), per "[@" (an attribute
// predicate) and per '=' (a value). String literals are skipped the way
// parseString reads them.
func nodeBound(src string) int {
	n := 0
	for i := 0; i < len(src); i++ {
		switch src[i] {
		case '/':
			for i+1 < len(src) && src[i+1] == '/' {
				i++
			}
			if i+1 < len(src) && src[i+1] != '*' {
				n++
			}
		case '@':
			if i > 0 && src[i-1] == '[' {
				n++
			}
		case '=':
			n++
		case '"':
			for i++; i < len(src) && src[i] != '"'; i++ {
				if src[i] == '\\' {
					i++
				}
			}
		}
	}
	return n
}

// parser reads one query. Nodes are numbered in creation order, and a node
// is only ever attached to one made before it — which makes creation order
// the order every parent's children were attached in.
type parser struct {
	src   string
	pos   int
	nodes []Node // the slab, sized by nodeBound
	n     int    // nodes made so far; node 0 is the root
}

// links is the tree the parse records, by node number. It is passed beside
// the parser, not held in it: escape analysis does not tell a struct's
// fields apart, and the parser's strings reach the heap, so buffers held
// there would be moved to the heap with them instead of staying on Parse's
// stack.
type links struct {
	parents []int32 // parents[i] is node i's parent, for i >= 1
	nkids   []int32 // nkids[i] counts node i's children
}

// errNodeBound reports a node beyond nodeBound's count. nodeBound counts
// every position a node is made at, so this is a parser bug, reported
// rather than panicked on at the service boundary.
var errNodeBound = errors.New("more nodes than the query text can hold")

// node makes the next node.
func (p *parser) node(label string, isValue bool, e Edge) (int, error) {
	if p.n == len(p.nodes) {
		return 0, errNodeBound
	}
	p.nodes[p.n] = Node{Label: label, IsValue: isValue, Edge: e}
	p.n++
	return p.n - 1, nil
}

// attach makes node child the next child of node parent.
func (l *links) attach(parent, child int) {
	l.parents[child] = int32(parent)
	l.nkids[parent]++
}

// link builds the tree from the parent links: every node's children are one
// window of the child-pointer slab, windows in node order, each filled with
// its children in creation order.
func (p *parser) link(l *links, rootEdge Edge) *Query {
	nodes := p.nodes[:p.n]
	var q *Query
	var kids []*Node
	switch k := len(nodes) - 1; {
	case k <= slabKids/2:
		s := new(querySlab[[slabKids / 2]*Node])
		q, kids = &s.q, s.kids[:k]
	case k <= slabKids:
		s := new(querySlab[[slabKids]*Node])
		q, kids = &s.q, s.kids[:k]
	default:
		q, kids = new(Query), make([]*Node, k)
	}
	off := 0
	for i := range nodes {
		if c := int(l.nkids[i]); c > 0 {
			nodes[i].Children = kids[off : off : off+c]
			off += c
		}
	}
	for i := 1; i < len(nodes); i++ {
		parent := &nodes[l.parents[i]]
		parent.Children = append(parent.Children, &nodes[i])
	}
	*q = Query{Root: &nodes[0], RootEdge: rootEdge}
	return q
}

func (p *parser) rest() string { return p.src[p.pos:] }

func (p *parser) eat(tok string) bool {
	if strings.HasPrefix(p.rest(), tok) {
		p.pos += len(tok)
		return true
	}
	return false
}

// parseSep consumes "/" or "//" and returns (found, descendant).
func (p *parser) parseSep() (bool, bool) {
	if p.eat("//") {
		return true, true
	}
	if p.eat("/") {
		return true, false
	}
	return false, false
}

func (p *parser) parseName() string {
	start := p.pos
	for p.pos < len(p.src) {
		r := rune(p.src[p.pos])
		if unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' || r == '-' || r == '.' || r == ':' {
			p.pos++
		} else {
			break
		}
	}
	return p.src[start:p.pos]
}

func (p *parser) parseString() (string, error) {
	if p.pos >= len(p.src) || p.src[p.pos] != '"' {
		return "", fmt.Errorf("expected string literal at %d", p.pos)
	}
	start := p.pos
	p.pos++
	for p.pos < len(p.src) && p.src[p.pos] != '"' {
		if p.src[p.pos] == '\\' {
			p.pos++
		}
		p.pos++
	}
	if p.pos >= len(p.src) {
		return "", fmt.Errorf("unterminated string literal at %d", start)
	}
	p.pos++
	s, err := strconv.Unquote(p.src[start:p.pos])
	if err != nil {
		return "", fmt.Errorf("bad string literal %s: %v", p.src[start:p.pos], err)
	}
	return s, nil
}

// value parses a string literal into a value node attached to parent.
func (p *parser) value(l *links, parent int) error {
	s, err := p.parseString()
	if err != nil {
		return err
	}
	v, err := p.node(s, true, Edge{Min: 1, Max: 1})
	if err != nil {
		return err
	}
	l.attach(parent, v)
	return nil
}

// edgeState accumulates separators and '*' steps between materialised nodes.
type edgeState struct {
	hops      int // '*' steps consumed so far
	unbounded bool
}

func (e *edgeState) sep(descendant bool) {
	if descendant {
		e.unbounded = true
	}
}

func (e *edgeState) star() { e.hops++ }

func (e *edgeState) edge() Edge {
	min := e.hops + 1
	max := min
	if e.unbounded {
		max = Unbounded
	}
	return Edge{Min: min, Max: max}
}

// parseQuery parses the whole text; the root is node 0, the first node the
// top-level path makes.
func (p *parser) parseQuery(l *links) (Edge, error) {
	found, desc := p.parseSep()
	if !found {
		return Edge{}, fmt.Errorf("query must start with / or //")
	}
	es := edgeState{}
	es.sep(desc)
	_, rootEdge, _, err := p.path(l, &es, false)
	if err != nil {
		return Edge{}, err
	}
	if p.pos != len(p.src) {
		return Edge{}, fmt.Errorf("trailing input at %d: %q", p.pos, p.rest())
	}
	return rootEdge, nil
}

// path parses step { sep step } starting after an already-consumed
// separator whose state is in es. In predicate context it stops at ']' or
// '='; at top level it stops at the end of the input. It returns the first
// materialised node of the path, that node's edge, and the node a trailing
// "=" value attaches under: the deepest node down the chain of last
// children whose last child is not a value.
func (p *parser) path(l *links, es *edgeState, inPredicate bool) (first int, firstEdge Edge, deep int, err error) {
	first, cur := -1, -1
	finish := func() (int, Edge, int, error) {
		if es.hops != 0 || es.unbounded {
			return 0, Edge{}, 0, fmt.Errorf("path cannot end in '*' or '//' at %d", p.pos)
		}
		if first < 0 {
			return 0, Edge{}, 0, fmt.Errorf("empty path at %d", p.pos)
		}
		return first, firstEdge, deep, nil
	}
	for {
		// nametest
		if p.eat("*") {
			if p.pos < len(p.src) && p.src[p.pos] == '[' {
				return 0, Edge{}, 0, fmt.Errorf("predicates on '*' steps are not supported at %d", p.pos)
			}
			es.star()
		} else {
			// '@name' is accepted as a synonym for 'name': the tree model
			// follows the paper in representing attributes as subelements,
			// so the attribute axis degenerates to the child axis.
			p.eat("@")
			name := p.parseName()
			if name == "" {
				return 0, Edge{}, 0, fmt.Errorf("expected name or '*' at %d", p.pos)
			}
			n, err := p.node(name, false, es.edge())
			if err != nil {
				return 0, Edge{}, 0, err
			}
			if first < 0 {
				first, firstEdge = n, p.nodes[n].Edge
			}
			if cur >= 0 {
				l.attach(cur, n)
			}
			// A new spine node is its path's last child, with no children yet.
			cur, deep = n, n
			*es = edgeState{}
			// predicates
			for p.pos < len(p.src) && p.src[p.pos] == '[' {
				if deep, err = p.parsePredicate(l, cur); err != nil {
					return 0, Edge{}, 0, err
				}
			}
		}
		if inPredicate && p.pos < len(p.src) && (p.src[p.pos] == ']' || p.src[p.pos] == '=') {
			return finish()
		}
		found, desc := p.parseSep()
		if !found {
			if inPredicate {
				return 0, Edge{}, 0, fmt.Errorf("expected separator, ']' or '=' at %d", p.pos)
			}
			return finish()
		}
		es.sep(desc)
	}
}

// parsePredicate parses one predicate of node owner and attaches what it
// names. It returns where a value would now attach under owner (path's
// deep): owner itself when the predicate added a value child.
func (p *parser) parsePredicate(l *links, owner int) (deep int, err error) {
	if !p.eat("[") {
		return 0, fmt.Errorf("expected '[' at %d", p.pos)
	}
	switch {
	case p.eat("text()"):
		if !p.eat("=") {
			return 0, fmt.Errorf("expected '=' after text() at %d", p.pos)
		}
		if err := p.value(l, owner); err != nil {
			return 0, err
		}
		deep = owner
	case p.eat("@"):
		name := p.parseName()
		if name == "" {
			return 0, fmt.Errorf("expected attribute name after '@' at %d", p.pos)
		}
		attr, err := p.node(name, false, Edge{Min: 1, Max: 1})
		if err != nil {
			return 0, err
		}
		if p.eat("=") {
			if err := p.value(l, attr); err != nil {
				return 0, err
			}
		}
		l.attach(owner, attr)
		deep = attr
	case p.eat("."):
		found, desc := p.parseSep()
		if !found {
			return 0, fmt.Errorf("expected '/' or '//' after '.' at %d", p.pos)
		}
		es := edgeState{}
		es.sep(desc)
		child, _, d, err := p.path(l, &es, true)
		if err != nil {
			return 0, err
		}
		if p.eat("=") {
			// Attach the value under the deepest spine node of the
			// predicate path.
			if err := p.value(l, d); err != nil {
				return 0, err
			}
		}
		l.attach(owner, child)
		deep = d
	default:
		return 0, fmt.Errorf("expected '.' or text() in predicate at %d", p.pos)
	}
	if !p.eat("]") {
		return 0, fmt.Errorf("expected ']' at %d", p.pos)
	}
	return deep, nil
}
