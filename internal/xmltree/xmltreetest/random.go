package xmltreetest

import (
	"math/rand"

	"repro/internal/xmltree"
)

// RandomConfig bounds the shape of trees produced by RandomDocument.
type RandomConfig struct {
	// Nodes is the exact number of element nodes to generate (minimum 1).
	Nodes int
	// Alphabet holds the tag names drawn from. Must be non-empty.
	Alphabet []string
	// MaxFanout caps the number of children attached to a node; zero
	// means unbounded (shape decided purely by random attachment).
	MaxFanout int
	// ValueProb is the probability that a leaf receives a value child
	// drawn from Values; zero disables value nodes.
	ValueProb float64
	// Values holds candidate value strings.
	Values []string
}

// RandomDocument generates a uniformly shaped random ordered tree with the
// given configuration. It is used by property-based tests across the repo.
func RandomDocument(rng *rand.Rand, id int, cfg RandomConfig) *xmltree.Document {
	if cfg.Nodes < 1 {
		cfg.Nodes = 1
	}
	if len(cfg.Alphabet) == 0 {
		cfg.Alphabet = []string{"a", "b", "c"}
	}
	pick := func() string { return cfg.Alphabet[rng.Intn(len(cfg.Alphabet))] }
	root := &xmltree.Node{Label: pick()}
	nodes := []*xmltree.Node{root}
	for len(nodes) < cfg.Nodes {
		// Attach to a random existing node that still has fanout budget.
		var parent *xmltree.Node
		for tries := 0; tries < 32; tries++ {
			cand := nodes[rng.Intn(len(nodes))]
			if cfg.MaxFanout == 0 || len(cand.Children) < cfg.MaxFanout {
				parent = cand
				break
			}
		}
		if parent == nil {
			parent = nodes[len(nodes)-1]
		}
		n := &xmltree.Node{Label: pick()}
		parent.AddChild(n)
		nodes = append(nodes, n)
	}
	if cfg.ValueProb > 0 && len(cfg.Values) > 0 {
		for _, n := range nodes {
			if n.IsLeaf() && rng.Float64() < cfg.ValueProb {
				n.AddChild(&xmltree.Node{Label: cfg.Values[rng.Intn(len(cfg.Values))], IsValue: true})
			}
		}
	}
	return xmltree.NewDocument(id, root)
}

// RandomSubtreePattern extracts a random connected, order-preserving
// sub-pattern of d with up to want element nodes, rooted at a random node.
// The result is a labeled subgraph of d in the paper's Theorem 1 sense, so
// its LPS is guaranteed to be a subsequence of LPS(d). Returns nil when the
// document is empty.
func RandomSubtreePattern(rng *rand.Rand, d *xmltree.Document, want int) *xmltree.Document {
	if len(d.Nodes) == 0 || want < 1 {
		return nil
	}
	src := d.Nodes[rng.Intn(len(d.Nodes))]
	// Walk down from src keeping a random subset of children at each step,
	// preserving their relative order (ordered twig semantics).
	var cp func(n *xmltree.Node, budget *int) *xmltree.Node
	cp = func(n *xmltree.Node, budget *int) *xmltree.Node {
		m := &xmltree.Node{Label: n.Label, IsValue: n.IsValue}
		for _, c := range n.Children {
			if *budget <= 0 {
				break
			}
			if rng.Float64() < 0.6 {
				*budget--
				m.AddChild(cp(c, budget))
			}
		}
		return m
	}
	budget := want - 1
	return xmltree.NewDocument(0, cp(src, &budget))
}
