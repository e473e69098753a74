package prix

import (
	"errors"
	"fmt"

	"repro/internal/twig"
	"repro/internal/xmltree"
)

// Dual bundles an RPIndex and an EPIndex over the same collection and
// routes each query to the right one, implementing §5.6's optimizer: "In
// the PRIX system, both RPIndex and EPIndex can coexist. A query optimizer
// can choose either of the indexes based on the presence or absence of
// values in twig queries."
//
// Routing rules, in order:
//  1. queries with value predicates -> EPIndex (higher pruning power, and
//     value leaves behave like any other node there);
//  2. queries an RPIndex cannot filter (wildcard edge above a twig leaf,
//     ErrNeedsExtendedIndex) -> EPIndex;
//  3. everything else -> RPIndex (shorter sequences, cheaper filtering).
type Dual struct {
	rp, ep *Index
}

// BuildDual constructs both index variants over the documents. opts.Dir,
// when set, receives two subdirectories, "rp" and "ep".
func BuildDual(docs []*xmltree.Document, opts Options) (*Dual, error) {
	rpOpts, epOpts := opts, opts
	rpOpts.Extended = false
	epOpts.Extended = true
	if opts.Dir != "" {
		rpOpts.Dir = opts.Dir + "/rp"
		epOpts.Dir = opts.Dir + "/ep"
	}
	rp, err := Build(docs, rpOpts)
	if err != nil {
		return nil, fmt.Errorf("prix: dual RP build: %w", err)
	}
	ep, err := Build(docs, epOpts)
	if err != nil {
		return nil, fmt.Errorf("prix: dual EP build: %w", err)
	}
	return &Dual{rp: rp, ep: ep}, nil
}

// OpenDual opens both halves of a persistent dual index.
func OpenDual(dir string, opts Options) (*Dual, error) {
	rp, err := Open(dir+"/rp", opts)
	if err != nil {
		return nil, err
	}
	ep, err := Open(dir+"/ep", opts)
	if err != nil {
		return nil, err
	}
	if rp.Extended() || !ep.Extended() {
		return nil, fmt.Errorf("prix: %s does not hold an RP/EP pair", dir)
	}
	return &Dual{rp: rp, ep: ep}, nil
}

// RP exposes the regular-sequence half.
func (d *Dual) RP() *Index { return d.rp }

// EP exposes the extended-sequence half.
func (d *Dual) EP() *Index { return d.ep }

// Choose returns the index the optimizer picks for the query.
func (d *Dual) Choose(q *twig.Query) *Index {
	if q.HasValues() {
		return d.ep
	}
	if needsExtended(q) {
		return d.ep
	}
	return d.rp
}

// needsExtended reports rule 2: a non-exact edge directly above a twig
// leaf makes regular-sequence filtering impossible.
func needsExtended(q *twig.Query) bool {
	var walk func(n *twig.Node) bool
	walk = func(n *twig.Node) bool {
		for _, c := range n.Children {
			if len(c.Children) == 0 && !c.Edge.Exact() {
				return true
			}
			if walk(c) {
				return true
			}
		}
		return false
	}
	return walk(q.Root)
}

// Match routes the query and runs it. Rule 2 is the predicate RP compile
// refuses on, so the routed index answers; should it refuse all the same,
// the EPIndex answers instead.
func (d *Dual) Match(q *twig.Query, opts MatchOptions) ([]Match, *QueryStats, error) {
	ix := d.Choose(q)
	ms, stats, err := ix.Match(q, opts)
	if err != nil && !ix.Extended() && errors.Is(err, ErrNeedsExtendedIndex) {
		return d.ep.Match(q, opts)
	}
	return ms, stats, err
}

// MatchExhaustive is Match with the completeness escape hatch.
func (d *Dual) MatchExhaustive(q *twig.Query, opts MatchOptions) ([]Match, *QueryStats, error) {
	return d.Choose(q).MatchExhaustive(q, opts)
}
