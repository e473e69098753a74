package compact

import (
	"fmt"
	"testing"

	"repro/internal/datagen"
	"repro/internal/prix"
	"repro/internal/xmltree"
)

// editFirstValue returns d with its first value rewritten: on an EPIndex
// the sequence changes, so the update writes a chain.
func editFirstValue(d *xmltree.Document, salt int) *xmltree.Document {
	c := d.Clone()
	c.Number()
	for _, n := range c.Nodes {
		if n.IsValue {
			n.Label = fmt.Sprintf("%s (edit %d)", n.Label, salt)
			break
		}
	}
	return c
}

// BenchmarkCompactDynamic is one whole compaction — drain, dynamic bulk
// build, publish — of a 3,000-document EPIndex that has taken 300 mutations
// (four updates to one delete), over real files. Tombstones stay inside the
// retention window, so every iteration rewrites all 3,000 documents.
func BenchmarkCompactDynamic(b *testing.B) {
	docs := append(datagen.DBLP(1, 1).Docs, datagen.SwissProt(2, 1).Docs...)[:3000]
	dir := b.TempDir()
	di, err := prix.NewDynamicIndex(docs, prix.Options{Extended: true, Dir: dir, BufferPoolPages: 256}, prix.DynamicOptions{Alpha: 4})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		id := i * 37 % len(docs)
		if i%5 == 4 {
			_, err = di.Delete(uint32(id))
		} else {
			_, err = di.Update(uint32(id), editFirstValue(docs[id], i))
		}
		if err != nil {
			b.Fatal(err)
		}
	}
	if err := di.Flush(); err != nil {
		b.Fatal(err)
	}
	if err := di.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := Run(Options{Dir: dir, Retain: 1 << 20})
		if err != nil {
			b.Fatal(err)
		}
		if rep.Docs != uint32(len(docs)) || rep.Tombstones != 60 {
			b.Fatalf("compaction rewrote %d documents, kept %d tombstones", rep.Docs, rep.Tombstones)
		}
	}
	b.ReportMetric(float64(len(docs)*b.N)/b.Elapsed().Seconds(), "docs/s")
}
