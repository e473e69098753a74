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
// replay at every OpenDynamic), so its heap grows with the postings it
// hands out — see Nodes and Bytes. Only the nodes an insert can branch at
// are materialized. When an Add creates nodes from some depth to the end of
// its sequence, it allocates the first, the head, and keeps the rest as a
// tail: a run of 4-byte symbols. Their labels are recomputed, not stored:
// each was carved from a parent whose free slot still stood at its left
// end, so each follows from the one above it (trie.below). A later Add that
// leaves a tail materializes it down to where it leaves; one that ends
// inside it, or repeats it, allocates nothing. Static builds use the exact
// Builder.
type DynamicLabeler struct {
	// alpha is the depth of the pre-allocated prefix trie. Spread, the
	// range slots reserved per expected future symbol when a child scope is
	// carved dynamically, is t.spread: tail labels are recomputed with it.
	alpha int

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
	d := &DynamicLabeler{alpha: alpha, t: newTrie(), prep: make([]prepStat, 1)}
	d.t.spread = spread
	return d
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
	for i := 0; i < len(seq) && i < d.alpha; i++ {
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
func (d *DynamicLabeler) Add(seq []Symbol) error {
	_, _, err := d.add(seq, false)
	return err
}

// AddReport is Add, additionally returning the postings of trie nodes
// created by this sequence (the only ones an incremental index needs to
// write) and the terminal posting the document attaches to. created is the
// labeler's own buffer: it is valid only until the next AddReport.
func (d *DynamicLabeler) AddReport(seq []Symbol) (created []Posting, terminal Posting, err error) {
	created, terminal, err = d.add(seq, true)
	if created != nil {
		d.created = created[:0] // keep what it grew to
	}
	return created, terminal, err
}

// carve is the width of the scope a new child takes out of remaining free
// slots when rest symbols of its sequence, its own included, are still to
// be labeled: Spread slots per future symbol, capped at half the remaining
// scope (to leave room for future siblings), with a floor of two slots per
// future symbol so a pure chain can always finish inside the scope it was
// granted. A width below rest is a scope underflow.
func carve(rest, remaining, spread uint64) uint64 {
	width := rest * spread
	if width > remaining/2 {
		width = remaining / 2
	}
	if width < 2*rest {
		width = 2 * rest
	}
	if width > remaining {
		width = remaining
	}
	return width
}

// below is the scope of the child an Add created under a node it had just
// created with scope (left, right], the child having rest symbols of the
// sequence left, its own included: that node's free slot still stood at
// left. This is how a tail's labels are
// recomputed. Only a chain's first node can underflow: a parent's scope of
// width w ≥ rest leaves w-1 ≥ rest-1 for the child, so below never does.
func (t *trie) below(left, right uint64, rest int) (uint64, uint64) {
	return left + 1, left + carve(uint64(rest), right-left, t.spread)
}

// tailRun is the symbols of tail head h's tail.
func (t *trie) tailRun(h *node) []Symbol {
	tl := t.tails[h.kid]
	return t.syms[tl.off : tl.off+tl.n]
}

func (d *DynamicLabeler) add(seq []Symbol, report bool) (created []Posting, terminal Posting, err error) {
	if !d.prepared {
		d.Finalize()
	}
	t := &d.t
	cur := uint32(0)
	for i := 0; i < len(seq); {
		p := t.at(cur)
		if p.fan == tailFan {
			var ended bool
			if cur, i, terminal, ended = d.followTail(cur, seq, i); ended {
				d.seqs++
				return nil, terminal, nil
			}
			continue
		}
		next := t.child(p, seq[i])
		if next == 0 {
			rest := uint64(len(seq) - i)
			remaining := p.right - p.free
			width := carve(rest, remaining, t.spread)
			if width < rest {
				// Not even one slot per future symbol: scope underflow.
				d.underflows++
				return nil, Posting{}, fmt.Errorf("vtrie: %w at depth %d (remaining %d, need %d)",
					ErrScopeUnderflow, i+1, remaining, rest)
			}
			created, terminal = d.grow(p, seq, i, width, report)
			d.seqs++
			return created, terminal, nil
		}
		cur = next
		i++
	}
	d.seqs++
	return nil, t.posting(cur, uint32(len(seq))), nil
}

// grow hangs seq[i:] below p, which has no child labeled seq[i]: a head
// taking width slots of p's free scope and, when seq goes on, a tail below
// it holding the rest. It returns the last posting it stands for and, when
// report is set, all of them — the head's and each tail node's, exactly the
// labels a node per symbol would have carved.
func (d *DynamicLabeler) grow(p *node, seq []Symbol, i int, width uint64, report bool) (created []Posting, terminal Posting) {
	t := &d.t
	h := t.add(seq[i])
	hn := t.at(h)
	hn.left, hn.right = p.free+1, p.free+width
	hn.free = hn.left
	p.free += width
	t.link(p, h)
	terminal = t.posting(h, uint32(i+1))
	if report {
		// The sequence is all new from i on: one block that holds it.
		created = append(slices.Grow(d.created[:0], len(seq)-i), terminal)
	}
	run := seq[i+1:]
	if len(run) == 0 {
		return created, terminal
	}
	hn.fan, hn.kid = tailFan, uint32(len(t.tails))
	t.tails = append(t.tails, tail{uint32(len(t.syms)), uint32(len(run))})
	t.syms = append(t.syms, run...)
	t.tailSyms += len(run)
	l, r := hn.left, hn.right
	for k, s := range run {
		l, r = t.below(l, r, len(run)-k)
		terminal = Posting{Symbol: s, Left: l, Right: r, Level: uint32(i + 2 + k)}
		if report {
			created = append(created, terminal)
		}
	}
	return created, terminal
}

// followTail walks seq on from depth i into the tail below head h. A
// sequence that ends inside the tail, or at its end, allocates nothing: its
// terminal posting is recomputed (ended). Otherwise seq leaves the tail
// below some node n, at depth; followTail materializes the tail down to n
// and, when the tail goes on past n, n's one child, which takes over the
// rest of the tail. Every materialized node's free slot is where a node per
// symbol would have it: at its child's right end, or at its own left end
// on a leaf. (A tail head's free slot is never read: it is set here, when
// the head's first child is materialized.)
func (d *DynamicLabeler) followTail(h uint32, seq []Symbol, i int) (n uint32, depth int, terminal Posting, ended bool) {
	t := &d.t
	hn := t.at(h)
	run := t.tailRun(hn)
	m := 0
	for m < len(run) && i+m < len(seq) && run[m] == seq[i+m] {
		m++
	}
	if i+m == len(seq) {
		l, r := hn.left, hn.right
		for k := 0; k < m; k++ {
			l, r = t.below(l, r, len(run)-k)
		}
		return 0, 0, Posting{Symbol: run[m-1], Left: l, Right: r, Level: uint32(i + m)}, true
	}
	ti, tl := hn.kid, t.tails[hn.kid]
	hn.fan, hn.kid = 0, 0
	upto := min(m+1, len(run))
	n, last := h, h
	for k := 0; k < upto; k++ {
		c := t.add(run[k])
		pn, cn := t.at(last), t.at(c)
		cn.left, cn.right = t.below(pn.left, pn.right, len(run)-k)
		cn.free, pn.free = cn.left, cn.right
		t.link(pn, c)
		if k < m {
			n = c
		}
		last = c
	}
	t.tailSyms -= upto
	if rest := len(run) - upto; rest > 0 {
		ln := t.at(last)
		t.tails[ti] = tail{tl.off + uint32(upto), uint32(rest)}
		ln.fan, ln.kid = tailFan, ti
	}
	return n, i + m, Posting{}, false
}

// EmitPrefix invokes fn for every node of the prepared prefix trie (the
// nodes created by Prepare/Finalize rather than by Add). An incremental
// index must write these postings once, right after Finalize; Add reports
// only the nodes it creates itself.
func (d *DynamicLabeler) EmitPrefix(fn func(p Posting) error) error {
	if !d.prepared {
		d.Finalize()
	}
	return d.t.walk(func(_ uint32, p Posting) error { return fn(p) })
}

// ErrScopeUnderflow reports that dynamic labeling ran out of range slots.
var ErrScopeUnderflow = fmt.Errorf("scope underflow")

// Underflows returns how many Add calls failed with scope underflow.
func (d *DynamicLabeler) Underflows() int { return d.underflows }

// Sequences returns how many sequences were labeled successfully.
func (d *DynamicLabeler) Sequences() int { return d.seqs }

// Nodes returns the number of trie nodes the labeler stands for (excluding
// the root), materialized or in a tail: one per posting it has handed out.
func (d *DynamicLabeler) Nodes() int { return int(d.t.n) - 1 + d.t.tailSyms }

// Bytes returns the heap the labeler's trie occupies: its node slabs, child
// indexes, tail table and tail arena.
func (d *DynamicLabeler) Bytes() int { return d.t.bytes() }
