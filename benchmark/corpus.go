package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"os"

	"repro/internal/datagen"
	"repro/internal/prix"
	"repro/internal/twig"
	"repro/internal/xmltree"
)

// corpus is MIX: the three synthetic datasets of the paper's §6.2 side by
// side in one collection, document ids dense in slice order. One collection
// (not three) so a single index, one sharded layout and one dynamic index
// each see shallow, bushy and deep documents at once.
type corpus struct {
	docs []*xmltree.Document
	// origin[i] is the dataset index (datagen.Names order) of docs[i].
	origin   []int
	xmlBytes int64
	planted  []datagen.QuerySpec
}

func makeCorpus(scale int, seed int64) (*corpus, error) {
	c := &corpus{}
	for di, name := range datagen.Names() {
		ds, err := datagen.ByName(name, scale, seed)
		if err != nil {
			return nil, err
		}
		for _, d := range ds.Docs {
			d.ID = len(c.docs)
			c.docs = append(c.docs, d)
			c.origin = append(c.origin, di)
		}
		c.xmlBytes += ds.Summarize().XMLBytes
		c.planted = append(c.planted, ds.Queries...)
	}
	return c, nil
}

// writeXML streams the corpus as one <collection> wrapper, the shape
// ingest.Run reads with Split set.
func (c *corpus) writeXML(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	w.WriteString("<collection>\n")
	for _, d := range c.docs {
		if err := d.WriteXML(w); err != nil {
			f.Close()
			return err
		}
		w.WriteByte('\n')
	}
	w.WriteString("</collection>\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// query is one member of the query population.
type query struct {
	src string
	q   *twig.Query
	// want is the brute-force embedding count over the corpus: the planted
	// count for the paper's nine queries, computed for generated ones.
	want    int
	planted bool
	// origin is the dataset (datagen.Names index) the query's shape and
	// labels come from.
	origin int
}

// maxWant bounds a generated query's answer size. The planted queries top
// out at 158 embeddings; an instantiation on a very common tag pair can have
// tens of thousands, which would turn one op into most of a block.
const maxWant = 400

// maxCombos bounds a generated query's filtering cost by an engine-free
// proxy: summed over documents, the product of how often each query label
// occurs in the document — an upper bound on the label combinations PRIX's
// subsequence matching may have to enumerate there. A twig made only of
// ubiquitous tags (TREEBANK's NP, PP, S) costs hundreds of milliseconds; the
// paper's own queries all carry a selective value or a rare tag, and the
// bound keeps the generated ones in that class.
const maxCombos = 4000

// makeQueries builds QPOP: the nine planted queries plus up to perShape
// distinct instantiations of each planted query's shape, labels and values
// taken from a sampled document of the same dataset, so every query has at
// least one match and the cache and the latency distribution see hundreds
// of keys rather than nine.
func makeQueries(c *corpus, seed int64, perShape int) ([]query, error) {
	rng := rand.New(rand.NewSource(seed*7919 + 17))
	var out []query
	seen := map[string]bool{}
	byOrigin := make([][]*xmltree.Document, len(datagen.Names()))
	// Planted queries come three per dataset, in datagen.Names order.
	originOf := func(pi int) int { return pi * len(byOrigin) / len(c.planted) }
	for pi, qs := range c.planted {
		q, err := twig.Parse(qs.XPath)
		if err != nil {
			return nil, fmt.Errorf("planted %s: %w", qs.ID, err)
		}
		out = append(out, query{src: qs.XPath, q: q, want: qs.Want, planted: true, origin: originOf(pi)})
		seen[q.String()] = true
	}
	counts := make([][]map[string]int, len(byOrigin))
	for i, d := range c.docs {
		o := c.origin[i]
		byOrigin[o] = append(byOrigin[o], d)
		cnt := map[string]int{}
		for _, n := range d.Nodes {
			cnt[labelKey(n.Label, n.IsValue)]++
		}
		counts[o] = append(counts[o], cnt)
	}
	for pi, qs := range c.planted {
		o := originOf(pi)
		pool := byOrigin[o]
		made := 0
		for attempt := 0; attempt < perShape*400 && made < perShape; attempt++ {
			tmpl := twig.MustParse(qs.XPath)
			doc := pool[rng.Intn(len(pool))]
			if !instantiate(rng, tmpl.Root, doc.Nodes[rng.Intn(len(doc.Nodes))]) {
				continue
			}
			src := tmpl.String()
			if seen[src] || combos(counts[o], tmpl.Root) > maxCombos {
				continue
			}
			q, err := twig.Parse(src)
			if err != nil || q.String() != src || prix.RiskOfFalseDismissal(q) {
				continue
			}
			seen[src] = true
			want := twig.CountBruteForce(q, pool)
			if want < 1 || want > maxWant {
				continue
			}
			out = append(out, query{src: src, q: q, want: want, origin: o})
			made++
		}
	}
	return out, nil
}

// instantiate relabels the template subtree rooted at t with the labels of
// an embedding it finds below document node d: t's children map into
// distinct child subtrees of d in left-to-right order, so the ordered twig
// semantics are satisfied by construction.
func instantiate(rng *rand.Rand, t *twig.Node, d *xmltree.Node) bool {
	if t.IsValue != d.IsValue {
		return false
	}
	t.Label = d.Label
	next := 0
	for ci, tc := range t.Children {
		placed := false
		// Leave room for the template children still to place.
		last := len(d.Children) - (len(t.Children) - ci)
		if next > last {
			return false
		}
		for j := next + rng.Intn(last-next+1); j <= last && !placed; j++ {
			cand := d.Children[j]
			if !tc.Edge.Exact() {
				// Descendant edge: any node of the child's subtree.
				sub := subtree(cand)
				cand = sub[rng.Intn(len(sub))]
			}
			if instantiate(rng, tc, cand) {
				placed = true
				next = j + 1
			}
		}
		if !placed {
			return false
		}
	}
	return true
}

func labelKey(label string, isValue bool) string {
	if isValue {
		return "v:" + label
	}
	return "t:" + label
}

// combos is the maxCombos proxy for the twig rooted at t over one
// dataset's per-document label counts.
func combos(counts []map[string]int, t *twig.Node) float64 {
	var labels []string
	var walk func(n *twig.Node)
	walk = func(n *twig.Node) {
		labels = append(labels, labelKey(n.Label, n.IsValue))
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(t)
	total := 0.0
	for _, cnt := range counts {
		p := 1.0
		for _, l := range labels {
			p *= float64(cnt[l])
			if p == 0 {
				break
			}
		}
		total += p
	}
	return total
}

func subtree(n *xmltree.Node) []*xmltree.Node {
	out := []*xmltree.Node{n}
	for _, c := range n.Children {
		out = append(out, subtree(c)...)
	}
	return out
}

// opSequence is the seeded order queries are issued in: a shuffle of QPOP
// repeated, so every block of len(QPOP)*k ops holds every query k times.
func opSequence(n int, seed int64) []int {
	rng := rand.New(rand.NewSource(seed*104729 + 3))
	return rng.Perm(n)
}

// zipfSequence is a block of about count ops in which the query of
// popularity rank r appears in proportion to (r+1)^-1.1, in seeded order.
// Which queries are popular is a property of the data set (a permutation
// seeded by dataSeed). The multiset is the same for every seed and only its
// order is drawn: independent Zipf draws would give each seed another sample
// of the heavy tail, and with it another amount of work per op. Every query
// appears at least once.
func zipfSequence(n, count int, dataSeed, seed int64) []int {
	perm := rand.New(rand.NewSource(dataSeed*15485863 + 5)).Perm(n)
	weight := make([]float64, n)
	total := 0.0
	for r := range weight {
		weight[r] = math.Pow(float64(r+1), -1.1)
		total += weight[r]
	}
	var out []int
	for r, w := range weight {
		c := int(float64(count)*w/total + 0.5)
		if c < 1 {
			c = 1
		}
		for ; c > 0; c-- {
			out = append(out, perm[r])
		}
	}
	rng := rand.New(rand.NewSource(seed*15485863 + 7))
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// answerHash accumulates (query, count, first match) tuples in query order.
// Workloads over the same corpus must agree on its value whatever engine
// configuration answered.
type answerHash struct {
	seen   []bool
	tuples [][sha256.Size]byte
}

func newAnswerHash(n int) *answerHash {
	return &answerHash{seen: make([]bool, n), tuples: make([][sha256.Size]byte, n)}
}

// add records query qi's answer once; later answers for the same query are
// compared by the caller against its count instead.
func (a *answerHash) add(qi int, src string, count int, firstDoc uint32, firstImages []int32) {
	if a.seen[qi] {
		return
	}
	a.seen[qi] = true
	h := sha256.New()
	h.Write([]byte(src))
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(count))
	h.Write(b[:])
	if count > 0 {
		binary.LittleEndian.PutUint64(b[:], uint64(firstDoc))
		h.Write(b[:])
		for _, im := range firstImages {
			binary.LittleEndian.PutUint32(b[:4], uint32(im))
			h.Write(b[:4])
		}
	}
	copy(a.tuples[qi][:], h.Sum(nil))
}

func (a *answerHash) sum() string {
	h := sha256.New()
	for i, ok := range a.seen {
		if ok {
			h.Write(a.tuples[i][:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// sequenceHash fingerprints an op sequence together with the query texts,
// for the determinism test and the result header.
func sequenceHash(qs []query, seq []int) string {
	h := sha256.New()
	for _, q := range qs {
		h.Write([]byte(q.src))
		h.Write([]byte{0})
	}
	var b [4]byte
	for _, i := range seq {
		binary.LittleEndian.PutUint32(b[:], uint32(i))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
