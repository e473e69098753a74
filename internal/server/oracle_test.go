package server

import (
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/prix"
	"repro/internal/shard"
	"repro/internal/twig"
	"repro/internal/xmltree"
	"repro/internal/xmltree/xmltreetest"
)

// The oracle differential through the serving tier: the query shapes of
// internal/prix's differential suite, POSTed through Server.Handler() over
// a plain RP and EP index and over scatter-gather coordinators, each answer
// checked against the brute-force embedding oracle rather than against
// another engine: every count must equal the oracle's.

// oracleShapes is internal/prix's diffShapes (test-private there) plus a
// twig with two // branches under one node, on an RPIndex too.
var oracleShapes = []string{
	`//a/b`,
	`/a/b/c`,
	`//a[./b/c]/d`,
	`//a[./b][./d]`,
	`//a[./b/c="x"]/d`,
	`//b[./c]`,
	`//a//d/e`,
	`//a[.//b]//c`,
	`//a`,
	`//a[.//b/c]//d/e`,
}

// oracleCorpus is internal/prix's parallelCorpus: hand-picked twigs plus
// random documents over a five-label alphabet with values. Ids equal
// positions, so a sharded layout assigns the same global docids.
func oracleCorpus() []*xmltree.Document {
	docs := []*xmltree.Document{
		xmltreetest.PaperTree(0),
		xmltreetest.MustFromSExpr(1, `(a (b (c)) (d (e)))`),
		xmltreetest.MustFromSExpr(2, `(a (b (c "x")) (d))`),
		xmltreetest.MustFromSExpr(3, `(a (d (e)) (b (c)))`),
		xmltreetest.MustFromSExpr(4, `(a (a (b (c)) (d (e))))`),
		xmltreetest.MustFromSExpr(5, `(r)`),
	}
	rng := rand.New(rand.NewSource(7))
	for i := 6; i < 40; i++ {
		docs = append(docs, xmltreetest.RandomDocument(rng, i, xmltreetest.RandomConfig{
			Nodes:     30,
			Alphabet:  []string{"a", "b", "c", "d", "e"},
			MaxFanout: 4,
			ValueProb: 0.3,
			Values:    []string{"x", "y"},
		}))
	}
	return docs
}

func TestServerOracleDifferential(t *testing.T) {
	docs := oracleCorpus()
	type backend struct {
		name     string
		extended bool
		src      Source
	}
	var backends []backend
	for _, extended := range []bool{false, true} {
		kind := "rp"
		if extended {
			kind = "ep"
		}
		ix, err := prix.Build(docs, prix.Options{Extended: extended})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ix.Close() })
		co, err := shard.BuildMemory(docs, shard.BuildConfig{Shards: 3, Extended: extended, Epoch: 1}, shard.Config{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { co.Close() })
		backends = append(backends, backend{kind, extended, ix}, backend{kind + "/3 shards", extended, co})
	}
	for _, b := range backends {
		ts := httptest.NewServer(New(b.src, Config{}).Handler())
		for _, shape := range oracleShapes {
			q := twig.MustParse(shape)
			oracle := twig.CountBruteForce(q, docs)
			code, qr, raw := doQuery(t, ts.Client(), ts.URL, shape)
			if code == http.StatusUnprocessableEntity && !b.extended {
				continue // an RPIndex legitimately refuses this class
			}
			if code != http.StatusOK {
				t.Fatalf("%s %s: %d %s", b.name, shape, code, raw)
			}
			if qr.Count != oracle {
				t.Errorf("%s %s: count %d, oracle %d", b.name, shape, qr.Count, oracle)
			}
		}
		ts.Close()
	}
}
