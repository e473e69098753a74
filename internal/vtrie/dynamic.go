package vtrie

import (
	"fmt"
	"math/bits"
	"slices"
)

// DynamicLabeler implements the paper's on-the-fly labeling scheme
// (§5.2.1): ranges are assigned as sequences arrive, without a global pass
// over the trie. Because the future is unknown, a node's scope can run out
// — the scope underflow the paper reports for long sequences and large
// alphabets. To reduce underflows, an in-memory trie over the first Alpha
// symbols of every sequence is built in a preparatory pass and those
// prefix nodes get ranges pre-allocated by the frequency and residual
// length of the sequences sharing them, exactly as §5.2.1 prescribes.
//
// It is the labeler of prix.DynamicIndex and of every dynamic compaction:
// an insertable index keeps one resident for its whole life (rebuilt by
// replay at every OpenDynamic), so what a node costs here is what a posting
// costs in heap — see Nodes and Bytes. Static builds use the exact Builder.
type DynamicLabeler struct {
	// Alpha is the depth of the pre-allocated prefix trie.
	Alpha int
	// Spread is the number of range slots reserved per expected future
	// symbol when a child scope is carved dynamically.
	Spread uint64

	t trie
	// prep holds the preparatory pass's statistics, indexed by node (only
	// Prepare creates nodes before Finalize, so they are nodes 1..len-1).
	// Finalize consumes and drops it.
	prep []prepStat
	// created is AddReport's result, refilled by every call.
	created    []Posting
	underflows int
	seqs       int
	prepared   bool
}

// prepStat is what §5.2.1 weighs a prefix node by: how many sequences pass
// through it and the longest residue behind it.
type prepStat struct {
	freq    int
	maxRest int
}

// NewDynamicLabeler returns a labeler with the given prefix depth.
func NewDynamicLabeler(alpha int, spread uint64) *DynamicLabeler {
	if spread == 0 {
		spread = 1024
	}
	return &DynamicLabeler{Alpha: alpha, Spread: spread, t: newTrie(), prep: make([]prepStat, 1)}
}

// ErrPrepared reports a Prepare call after Finalize: the prefix trie's
// ranges are already carved and cannot absorb new statistics.
var ErrPrepared = fmt.Errorf("vtrie: Prepare after Finalize")

// Prepare performs the preparatory pass: it records the Alpha-prefix of one
// sequence, accumulating frequency and residual-length statistics. Call it
// for every sequence before any Add; after Finalize it returns ErrPrepared.
func (d *DynamicLabeler) Prepare(seq []Symbol) error {
	if d.prepared {
		return ErrPrepared
	}
	t := &d.t
	cur := uint32(0)
	for i := 0; i < len(seq) && i < d.Alpha; i++ {
		p := t.at(cur)
		next := t.child(p, seq[i])
		if next == 0 {
			next = t.add(seq[i])
			t.link(p, next)
			d.prep = append(d.prep, prepStat{})
		}
		st := &d.prep[next]
		st.freq++
		if rest := len(seq) - i - 1; rest > st.maxRest {
			st.maxRest = rest
		}
		cur = next
	}
	return nil
}

// Finalize allocates ranges for the prefix trie, weighting each child by
// frequency × (maximum residual length + 1) so hot, long prefixes receive
// proportionally larger scopes. Must be called once between the Prepare
// pass and the Add pass.
func (d *DynamicLabeler) Finalize() {
	if d.prepared {
		return
	}
	d.prepared = true
	t := &d.t
	weight := func(k uint32) uint64 {
		return uint64(d.prep[k].freq) * uint64(d.prep[k].maxRest+1)
	}
	// kids holds the children of every node on the walk's path, each node's
	// above its parent's: one buffer for the whole walk, not one per node.
	var kids []uint32
	var walk func(n *node)
	walk = func(n *node) {
		n.free = n.left
		base := len(kids)
		kids = t.kids(n, kids)
		end := len(kids)
		var totalW uint64
		for _, k := range kids[base:end] {
			totalW += weight(k)
		}
		// Allocate the prepared children from the first half of the scope
		// only: the second half stays free for children that were not in
		// the preparatory sample (future insertions).
		avail := (n.right - n.left) / 2
		for i := 0; i < end-base; i++ {
			// The walk below the previous child may have regrown kids;
			// entries base..end are as t.kids left them.
			k := kids[base+i]
			if n.free == n.right {
				// Scope exhausted: drop the remaining prepared children
				// instead of handing out inverted ranges that Validate
				// rejects. Add recreates them from the parent's free
				// half, or surfaces an honest underflow.
				t.keepKids(n, i)
				break
			}
			// width = avail * w / totalW. The ratio must not be truncated
			// first (avail/totalW is 0 whenever totalW > avail, collapsing
			// the weighted allocation to uniform width-1), and the product
			// can exceed 64 bits; w <= totalW guarantees the 128-bit
			// quotient fits back in 64 bits.
			hi, lo := bits.Mul64(avail, weight(k))
			width, _ := bits.Div64(hi, lo, totalW)
			if width < 1 {
				width = 1
			}
			if width > n.right-n.free {
				width = n.right - n.free
			}
			c := t.at(k)
			c.left = n.free + 1
			c.right = n.free + width
			n.free = c.right
			walk(c)
		}
		kids = kids[:base]
	}
	walk(t.at(0))
	d.prep = nil
}

// Add labels one sequence dynamically, creating nodes below the prefix trie
// as needed. It returns ErrScopeUnderflow (wrapped) when a node's scope is
// exhausted; the sequence is then only partially labeled and the caller
// should fall back to exact labeling.
func (d *DynamicLabeler) Add(seq []Symbol, docID uint32) error {
	_, _, err := d.add(seq, docID, false)
	return err
}

// AddReport is Add, additionally returning the postings of trie nodes
// created by this sequence (the only ones an incremental index needs to
// write) and the terminal posting the document id attaches to. created is
// the labeler's own buffer: it is valid only until the next AddReport.
func (d *DynamicLabeler) AddReport(seq []Symbol, docID uint32) (created []Posting, terminal Posting, err error) {
	created, terminal, err = d.add(seq, docID, true)
	if created != nil {
		d.created = created[:0] // keep what it grew to
	}
	return created, terminal, err
}

func (d *DynamicLabeler) add(seq []Symbol, docID uint32, report bool) (created []Posting, terminal Posting, err error) {
	if !d.prepared {
		d.Finalize()
	}
	t := &d.t
	cur := uint32(0)
	for i, s := range seq {
		p := t.at(cur)
		next := t.child(p, s)
		if next == 0 {
			rest := uint64(len(seq) - i)
			remaining := p.right - p.free
			// Ask for Spread slots per future symbol, capped at half the
			// remaining scope (to leave room for future siblings), with a
			// floor of two slots per future symbol so a pure chain can
			// always finish inside the scope it was granted.
			width := rest * d.Spread
			if width > remaining/2 {
				width = remaining / 2
			}
			if width < 2*rest {
				width = 2 * rest
			}
			if width > remaining {
				width = remaining
			}
			if width < rest {
				// Not even one slot per future symbol: scope underflow.
				d.underflows++
				return created, Posting{}, fmt.Errorf("vtrie: %w at depth %d (remaining %d, need %d)",
					ErrScopeUnderflow, i+1, remaining, rest)
			}
			next = t.add(s)
			c := t.at(next)
			c.left = p.free + 1
			c.right = p.free + width
			c.free = c.left
			p.free += width
			t.link(p, next)
			if report {
				if created == nil {
					// A fresh node has no children, so the rest of the
					// sequence is all new: one block that holds it.
					created = slices.Grow(d.created[:0], len(seq)-i)
				}
				created = append(created, t.posting(next, uint32(i+1)))
			}
		}
		cur = next
	}
	t.end(cur, docID)
	d.seqs++
	return created, t.posting(cur, uint32(len(seq))), nil
}

// EmitPrefix invokes fn for every node of the prepared prefix trie (the
// nodes created by Prepare/Finalize rather than by Add). An incremental
// index must write these postings once, right after Finalize; Add reports
// only the nodes it creates itself.
func (d *DynamicLabeler) EmitPrefix(fn func(p Posting) error) error {
	if !d.prepared {
		d.Finalize()
	}
	return d.t.walk(func(i, level uint32) error { return fn(d.t.posting(i, level)) })
}

// ErrScopeUnderflow reports that dynamic labeling ran out of range slots.
var ErrScopeUnderflow = fmt.Errorf("scope underflow")

// Underflows returns how many Add calls failed with scope underflow.
func (d *DynamicLabeler) Underflows() int { return d.underflows }

// Sequences returns how many sequences were labeled successfully.
func (d *DynamicLabeler) Sequences() int { return d.seqs }

// Nodes returns the number of trie nodes the labeler holds (excluding the
// root): one per posting it has handed out.
func (d *DynamicLabeler) Nodes() int { return int(d.t.n) - 1 }

// Bytes returns the heap the labeler's trie occupies.
func (d *DynamicLabeler) Bytes() int { return d.t.bytes() }
