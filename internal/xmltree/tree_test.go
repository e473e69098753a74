package xmltree_test

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/xmltree"
	"repro/internal/xmltree/xmltreetest"
)

func TestPaperTreePostorder(t *testing.T) {
	d := xmltreetest.PaperTree(7)
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if d.Size() != 15 {
		t.Fatalf("size = %d, want 15", d.Size())
	}
	wantLabels := []string{
		"C", "D", "C", "D", "E", "C", "B", "G", "C", "G", "F", "F", "E", "D", "A",
	}
	for i, want := range wantLabels {
		if got := d.Node(i + 1).Label; got != want {
			t.Errorf("node %d label = %s, want %s", i+1, got, want)
		}
	}
	// Cross-check the NPS from the paper via parent pointers.
	wantNPS := []int{15, 3, 7, 6, 6, 7, 15, 9, 15, 13, 13, 13, 14, 15}
	for i, want := range wantNPS {
		if got := d.Node(i + 1).Parent.Post; got != want {
			t.Errorf("parent(%d) = %d, want %d", i+1, got, want)
		}
	}
}

func TestNumberAssignsContiguousPostorder(t *testing.T) {
	d := xmltreetest.MustFromSExpr(1, `(a (b (c) (d)) (e))`)
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	want := []string{"c", "d", "b", "e", "a"}
	for i, w := range want {
		if d.Node(i+1).Label != w {
			t.Errorf("post %d = %s, want %s", i+1, d.Node(i+1).Label, w)
		}
	}
	// Preorder check.
	wantPre := map[string]int{"a": 1, "b": 2, "c": 3, "d": 4, "e": 5}
	for _, n := range d.Nodes {
		if wantPre[n.Label] != n.Pre {
			t.Errorf("pre(%s) = %d, want %d", n.Label, n.Pre, wantPre[n.Label])
		}
	}
}

func TestRegionContainment(t *testing.T) {
	d := xmltreetest.MustFromSExpr(1, `(a (b (c) (d)) (e))`)
	byLabel := map[string]*xmltree.Node{}
	for _, n := range d.Nodes {
		byLabel[n.Label] = n
	}
	anc := func(x, y *xmltree.Node) bool { return x.Left < y.Left && y.Right < x.Right }
	if !anc(byLabel["a"], byLabel["c"]) {
		t.Error("a should contain c")
	}
	if !anc(byLabel["b"], byLabel["d"]) {
		t.Error("b should contain d")
	}
	if anc(byLabel["b"], byLabel["e"]) {
		t.Error("b should not contain e")
	}
	if anc(byLabel["c"], byLabel["d"]) {
		t.Error("siblings must not contain each other")
	}
}

func TestParseBasics(t *testing.T) {
	doc, err := xmltree.ParseString(3, `<book year="1990"><author>Jim Gray</author><title>Tx</title></book>`)
	if err != nil {
		t.Fatal(err)
	}
	if err := doc.Validate(); err != nil {
		t.Fatal(err)
	}
	// book(year("1990") author("Jim Gray") title("Tx")): 4 elements + 3 values.
	if got := doc.CountElements(); got != 4 {
		t.Errorf("elements = %d, want 4", got)
	}
	if got := doc.CountValues(); got != 3 {
		t.Errorf("values = %d, want 3", got)
	}
	if doc.Root.Label != "book" {
		t.Errorf("root = %s", doc.Root.Label)
	}
	// Attribute became first subelement.
	if doc.Root.Children[0].Label != "year" || !doc.Root.Children[0].Children[0].IsValue {
		t.Errorf("attribute not converted to subelement: %s", doc)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		``,
		`<a><b></a></b>`,
		`<a></a><b></b>`,
		`text only`,
	}
	for _, src := range cases {
		if _, err := xmltree.ParseString(0, src); err == nil {
			t.Errorf("ParseString(%q) succeeded, want error", src)
		}
	}
}

func TestParseDropValues(t *testing.T) {
	doc, err := xmltree.Parse(0, strings.NewReader(`<a><b>secret</b></a>`), xmltree.ParseOptions{DropValues: true})
	if err != nil {
		t.Fatal(err)
	}
	if doc.CountValues() != 0 {
		t.Errorf("values survived DropValues: %s", doc)
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	src := `(dblp (inproceedings (author "Jim Gray") (year "1990")))`
	d := xmltreetest.MustFromSExpr(0, src)
	var sb strings.Builder
	if err := d.WriteXML(&sb); err != nil {
		t.Fatal(err)
	}
	back, err := xmltree.ParseString(0, sb.String())
	if err != nil {
		t.Fatal(err)
	}
	if back.String() != src {
		t.Errorf("round trip = %s, want %s", back.String(), src)
	}
	if d.XMLSize() != int64(len(sb.String())) {
		t.Errorf("XMLSize = %d, want %d", d.XMLSize(), len(sb.String()))
	}
}

func TestSExprRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 50; i++ {
		d := xmltreetest.RandomDocument(rng, i, xmltreetest.RandomConfig{
			Nodes: 1 + rng.Intn(40), Alphabet: []string{"a", "b", "c", "d"},
			ValueProb: 0.3, Values: []string{"x", "y z", `q"u`},
		})
		back, err := xmltreetest.FromSExpr(i, d.String())
		if err != nil {
			t.Fatalf("FromSExpr(%s): %v", d.String(), err)
		}
		if back.String() != d.String() {
			t.Fatalf("round trip mismatch:\n got %s\nwant %s", back.String(), d.String())
		}
	}
}

func TestDeepTreeIterativeNumbering(t *testing.T) {
	// A pathological unary chain far deeper than any recursive walk with
	// default stack limits would like; Number must be iterative.
	root := &xmltree.Node{Label: "r"}
	cur := root
	const depth = 200000
	for i := 0; i < depth; i++ {
		n := &xmltree.Node{Label: "x"}
		cur.AddChild(n)
		cur = n
	}
	d := xmltree.NewDocument(0, root)
	if d.Size() != depth+1 {
		t.Fatalf("size = %d", d.Size())
	}
	if d.MaxDepth() != depth+1 {
		t.Fatalf("depth = %d", d.MaxDepth())
	}
	if d.Node(depth+1) != root {
		t.Fatal("root must have the largest postorder number")
	}
}

func TestValidateDetectsCorruption(t *testing.T) {
	d := xmltreetest.MustFromSExpr(0, `(a (b) (c))`)
	d.Nodes[0].Post = 99
	if err := d.Validate(); err == nil {
		t.Error("Validate accepted corrupted postorder")
	}
}

func TestCloneIsDeep(t *testing.T) {
	d := xmltreetest.MustFromSExpr(1, `(a (b "v"))`)
	c := d.Clone()
	c.Root.Label = "z"
	if d.Root.Label != "a" {
		t.Error("clone aliases original")
	}
	if c.String() == d.String() {
		t.Error("mutation did not take")
	}
}

// Property: postorder of parent is strictly greater than postorder of every
// descendant, and region encoding agrees with ancestry derived from Parent
// pointers.
func TestQuickNumberingInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(seed int64, sz uint8) bool {
		r2 := rand.New(rand.NewSource(seed))
		d := xmltreetest.RandomDocument(r2, 0, xmltreetest.RandomConfig{Nodes: int(sz%60) + 1, Alphabet: []string{"p", "q", "r"}})
		if err := d.Validate(); err != nil {
			return false
		}
		for _, n := range d.Nodes {
			for p := n.Parent; p != nil; p = p.Parent {
				if !(p.Left < n.Left && n.Right < p.Right && p.Post > n.Post && p.Pre < n.Pre) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestRandomSubtreePatternEmpty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := xmltreetest.MustFromSExpr(0, `(a)`)
	if p := xmltreetest.RandomSubtreePattern(rng, d, 0); p != nil {
		t.Error("want nil for zero budget")
	}
	empty := &xmltree.Document{}
	if p := xmltreetest.RandomSubtreePattern(rng, empty, 3); p != nil {
		t.Error("want nil for empty document")
	}
}

func TestFromSExprErrors(t *testing.T) {
	bad := []string{``, `(`, `(a`, `(a))`, `("v")`, `(a "unterminated)`, `()`}
	for _, src := range bad {
		if _, err := xmltreetest.FromSExpr(0, src); err == nil {
			t.Errorf("FromSExpr(%q) succeeded", src)
		}
	}
}

func TestWriteXMLEscapes(t *testing.T) {
	d := xmltreetest.MustFromSExpr(0, `(a "x<y&z")`)
	var sb strings.Builder
	if err := d.WriteXML(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if strings.Contains(out, "x<y") {
		t.Errorf("unescaped output: %s", out)
	}
	back, err := xmltree.ParseString(0, out)
	if err != nil {
		t.Fatal(err)
	}
	if back.String() != d.String() {
		t.Errorf("escape round trip: %s vs %s", back, d)
	}
}
