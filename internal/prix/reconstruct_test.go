package prix

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/xmltree"
	"repro/internal/xmltree/xmltreetest"
)

// The index is lossless: every document can be rebuilt exactly from the
// stored sequences — the paper's one-to-one correspondence, end to end.
func TestReconstructDocumentRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var docs []*xmltree.Document
	for i := 0; i < 25; i++ {
		docs = append(docs, xmltreetest.RandomDocument(rng, i, xmltreetest.RandomConfig{
			Nodes:     1 + rng.Intn(40),
			Alphabet:  []string{"a", "b", "c", "d"},
			ValueProb: 0.4,
			Values:    []string{"v1", "v2", "some longer text"},
		}))
	}
	for _, extended := range []bool{false, true} {
		ix := build(t, extended, docs...)
		for _, want := range docs {
			got, err := ix.ReconstructDocument(uint32(want.ID))
			if err != nil {
				t.Fatalf("extended=%v doc %d: %v", extended, want.ID, err)
			}
			if got.String() != want.String() {
				t.Fatalf("extended=%v doc %d:\n got %s\nwant %s",
					extended, want.ID, got.String(), want.String())
			}
		}
	}
}

func TestReconstructDocumentErrors(t *testing.T) {
	ix := build(t, false, xmltreetest.MustFromSExpr(0, `(a (b))`))
	if _, err := ix.ReconstructDocument(99); err == nil {
		t.Error("reconstructing an absent document succeeded")
	}
}

// A deleted document has no live version to rebuild: ReconstructDocument
// refuses it with ErrDocDeleted instead of returning the tombstoned image,
// and the surviving document still rebuilds.
func TestReconstructDeletedDocument(t *testing.T) {
	docs := []*xmltree.Document{xmltreetest.MustFromSExpr(0, `(a (b))`), xmltreetest.MustFromSExpr(1, `(a (c))`)}
	di, err := NewDynamicIndex(docs, Options{Extended: true}, DynamicOptions{Alpha: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := di.Delete(0); err != nil {
		t.Fatal(err)
	}
	if doc, err := di.Index().ReconstructDocument(0); !errors.Is(err, ErrDocDeleted) {
		t.Fatalf("ReconstructDocument of a deleted document = %v, %v; want ErrDocDeleted", doc, err)
	}
	if doc, err := di.Index().ReconstructDocument(1); err != nil || doc.String() != docs[1].String() {
		t.Fatalf("ReconstructDocument(1) = %v, %v; want %s", doc, err, docs[1])
	}
}
