package prix

import (
	"errors"
	"strconv"
	"testing"

	"repro/internal/twig"
	"repro/internal/vtrie"
	"repro/internal/xmltree"
	"repro/internal/xmltree/xmltreetest"
)

// FuzzAsOfVersionMap drives a script of insert/delete/update ops over a
// small document pool and checks the replayed-prefix property: for every
// prefix of the script, a twin index that applies only that prefix must
// answer exactly what the fully mutated index answers AS OF the version
// the prefix ended at. Any divergence means the version map resolved a
// historical read against the wrong interval or record image.

var fuzzAsOfProbes = []string{`//a/b`, `//b/c`, `//a`}

var fuzzAsOfTemplates = []string{
	`(a (b (c)) (d (e)))`,
	`(a (b (c "x")) (d))`,
	`(a (d (e)) (b (c)))`,
	`(b (c) (a (b)))`,
	`(a (a (b (c)) (d (e))))`,
}

// fuzzAsOfApply replays ops[:n] against a fresh in-memory index and
// returns it with the number of live store documents.
func fuzzAsOfApply(t *testing.T, script []byte, n int) *DynamicIndex {
	t.Helper()
	seed := []*xmltree.Document{
		xmltreetest.MustFromSExpr(0, fuzzAsOfTemplates[0]),
		xmltreetest.MustFromSExpr(1, fuzzAsOfTemplates[1]),
		xmltreetest.MustFromSExpr(2, fuzzAsOfTemplates[2]),
	}
	di, err := NewDynamicIndex(seed, Options{Extended: true, BufferPoolPages: 64}, DynamicOptions{Alpha: 4})
	if err != nil {
		t.Fatal(err)
	}
	docs := len(seed)
	for i := 0; i < n; i++ {
		b := script[i]
		op := int(b & 3)
		arg := int(b >> 2)
		switch op {
		case 0: // insert a template clone
			d := xmltreetest.MustFromSExpr(docs, fuzzAsOfTemplates[arg%len(fuzzAsOfTemplates)])
			if err := di.Insert(d); err != nil {
				if errors.Is(err, vtrie.ErrScopeUnderflow) {
					continue
				}
				t.Fatal(err)
			}
			docs++
		case 1: // delete
			if _, err := di.Delete(uint32(arg % docs)); err != nil {
				if errors.Is(err, ErrDocDeleted) {
					continue
				}
				t.Fatal(err)
			}
		default: // update to a (salted) template variant
			id := arg % docs
			d := xmltreetest.MustFromSExpr(id, fuzzAsOfTemplates[(arg+op)%len(fuzzAsOfTemplates)])
			for _, node := range d.Nodes {
				if node.IsValue {
					node.Label = node.Label + strconv.Itoa(arg%7)
					break
				}
			}
			if _, err := di.Update(uint32(id), d); err != nil {
				if errors.Is(err, ErrDocDeleted) || errors.Is(err, vtrie.ErrScopeUnderflow) {
					continue
				}
				t.Fatal(err)
			}
		}
	}
	return di
}

func fuzzAsOfCounts(t *testing.T, di *DynamicIndex, asOf uint64) []int {
	t.Helper()
	out := make([]int, len(fuzzAsOfProbes))
	for i, src := range fuzzAsOfProbes {
		ms, _, err := di.Match(twig.MustParse(src), MatchOptions{WarmCache: true, AsOf: asOf})
		if err != nil {
			t.Fatalf("%s asOf=%d: %v", src, asOf, err)
		}
		out[i] = len(ms)
	}
	return out
}

func FuzzAsOfVersionMap(f *testing.F) {
	f.Add([]byte{0x01, 0x06, 0x0a, 0x05})       // delete, update, update, delete
	f.Add([]byte{0x00, 0x04, 0x09, 0x02, 0x0d}) // insert, insert, delete, update, delete
	f.Add([]byte{0x06, 0x06, 0x06})             // repeated update of one document
	f.Add([]byte{0x05, 0x00, 0x05, 0x09, 0x11}) // delete, insert, redelete, mixed
	f.Add([]byte{0x02, 0x0e, 0x01, 0x00, 0x0a, 0x1e})
	f.Fuzz(func(t *testing.T, script []byte) {
		const maxOps = 8
		if len(script) > maxOps {
			script = script[:maxOps]
		}
		full := fuzzAsOfApply(t, script, len(script))
		defer full.Close()
		for n := 0; n <= len(script); n++ {
			twin := fuzzAsOfApply(t, script, n)
			v := twin.VersionStats().Current
			want := fuzzAsOfCounts(t, twin, 0)
			twin.Close()
			if v == 0 {
				continue // no versioned mutation yet: prefix has no address
			}
			got := fuzzAsOfCounts(t, full, v)
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("script %x prefix %d (version %d): %s = %d, twin says %d",
						script, n, v, fuzzAsOfProbes[i], got[i], want[i])
				}
			}
		}
	})
}
