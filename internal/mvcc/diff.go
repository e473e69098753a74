// Package mvcc holds the version-map and sequence-diff machinery behind
// document versioning: Prüfer sequence diffs (a tree edit is a sequence
// edit, §3 of the paper), the compact patch codec updates ship instead of
// full records, and the per-document version-interval map that resolves
// AS OF queries and tombstone visibility. The package is storage-agnostic:
// locations of superseded record bytes are opaque (page, offset, length)
// triples the docstore interprets.
package mvcc

import (
	"fmt"
	"math/bits"
)

// Pair is one position of a document's Prüfer transform: the NPS entry
// (postorder number of the parent) and the LPS entry (the parent's symbol)
// at the same index. A tree with n nodes has n-1 pairs.
type Pair struct {
	N int32
	L uint32
}

// Leaf mirrors the record's leaf table (postorder number, symbol) without
// importing the docstore.
type Leaf struct {
	Post int32
	Sym  uint32
}

// Op kinds of a patch script. Retain and Delete consume Count source
// entries; Insert emits the op's payload.
const (
	OpRetain = byte(1)
	OpDelete = byte(2)
	OpInsert = byte(3)
)

// PairOp is one edit over the pair sequence.
type PairOp struct {
	Kind  byte
	Count uint32 // Retain/Delete
	Ins   []Pair // Insert
}

// LeafOp is one edit over the leaf table.
type LeafOp struct {
	Kind  byte
	Count uint32
	Ins   []Leaf
}

// Patch transforms one document version into the next: an edit script over
// the (NPS, LPS) pair sequence and one over the leaf table, plus the new
// node count. A patch produced by Diff applies with Apply; its encoded
// size (Size) is what the update path compares against a full record
// rewrite.
type Patch struct {
	NumNodes int32
	Pairs    []PairOp
	Leaves   []LeafOp
}

// Diff computes the patch turning (aPairs, aLeaves, aNodes) into (bPairs,
// bLeaves, bNodes) by common prefix/suffix trimming — linear time, and
// minimal for the single-region edits subtree mutations produce.
func Diff(aPairs, bPairs []Pair, aLeaves, bLeaves []Leaf, bNodes int32) *Patch {
	p := &Patch{NumNodes: bNodes}
	pre, suf := trimPairs(aPairs, bPairs)
	p.Pairs = pairScript(aPairs, bPairs, pre, suf)
	lpre, lsuf := trimLeaves(aLeaves, bLeaves)
	p.Leaves = leafScript(aLeaves, bLeaves, lpre, lsuf)
	return p
}

func trimPairs(a, b []Pair) (pre, suf int) {
	for pre < len(a) && pre < len(b) && a[pre] == b[pre] {
		pre++
	}
	for suf < len(a)-pre && suf < len(b)-pre && a[len(a)-1-suf] == b[len(b)-1-suf] {
		suf++
	}
	return pre, suf
}

func trimLeaves(a, b []Leaf) (pre, suf int) {
	for pre < len(a) && pre < len(b) && a[pre] == b[pre] {
		pre++
	}
	for suf < len(a)-pre && suf < len(b)-pre && a[len(a)-1-suf] == b[len(b)-1-suf] {
		suf++
	}
	return pre, suf
}

func pairScript(a, b []Pair, pre, suf int) []PairOp {
	var ops []PairOp
	if pre > 0 {
		ops = append(ops, PairOp{Kind: OpRetain, Count: uint32(pre)})
	}
	if del := len(a) - pre - suf; del > 0 {
		ops = append(ops, PairOp{Kind: OpDelete, Count: uint32(del)})
	}
	if mid := b[pre : len(b)-suf]; len(mid) > 0 {
		ops = append(ops, PairOp{Kind: OpInsert, Ins: append([]Pair(nil), mid...)})
	}
	if suf > 0 {
		ops = append(ops, PairOp{Kind: OpRetain, Count: uint32(suf)})
	}
	return ops
}

func leafScript(a, b []Leaf, pre, suf int) []LeafOp {
	var ops []LeafOp
	if pre > 0 {
		ops = append(ops, LeafOp{Kind: OpRetain, Count: uint32(pre)})
	}
	if del := len(a) - pre - suf; del > 0 {
		ops = append(ops, LeafOp{Kind: OpDelete, Count: uint32(del)})
	}
	if mid := b[pre : len(b)-suf]; len(mid) > 0 {
		ops = append(ops, LeafOp{Kind: OpInsert, Ins: append([]Leaf(nil), mid...)})
	}
	if suf > 0 {
		ops = append(ops, LeafOp{Kind: OpRetain, Count: uint32(suf)})
	}
	return ops
}

// Apply runs the patch against a source version and returns the new pair
// sequence and leaf table. A script that does not consume the source
// exactly is rejected (a patch applied to the wrong base).
func (p *Patch) Apply(aPairs []Pair, aLeaves []Leaf) ([]Pair, []Leaf, error) {
	pairs, err := applyPairs(p.Pairs, aPairs)
	if err != nil {
		return nil, nil, err
	}
	leaves, err := applyLeaves(p.Leaves, aLeaves)
	if err != nil {
		return nil, nil, err
	}
	if int32(len(pairs)) != p.NumNodes-1 && !(p.NumNodes == 0 && len(pairs) == 0) {
		return nil, nil, fmt.Errorf("mvcc: patch yields %d pairs for %d nodes", len(pairs), p.NumNodes)
	}
	return pairs, leaves, nil
}

func applyPairs(ops []PairOp, src []Pair) ([]Pair, error) {
	var out []Pair
	pos := 0
	for _, op := range ops {
		switch op.Kind {
		case OpRetain:
			if pos+int(op.Count) > len(src) {
				return nil, fmt.Errorf("mvcc: pair retain past end (%d+%d > %d)", pos, op.Count, len(src))
			}
			out = append(out, src[pos:pos+int(op.Count)]...)
			pos += int(op.Count)
		case OpDelete:
			if pos+int(op.Count) > len(src) {
				return nil, fmt.Errorf("mvcc: pair delete past end (%d+%d > %d)", pos, op.Count, len(src))
			}
			pos += int(op.Count)
		case OpInsert:
			out = append(out, op.Ins...)
		default:
			return nil, fmt.Errorf("mvcc: unknown pair op %d", op.Kind)
		}
	}
	if pos != len(src) {
		return nil, fmt.Errorf("mvcc: pair script consumed %d of %d entries", pos, len(src))
	}
	return out, nil
}

func applyLeaves(ops []LeafOp, src []Leaf) ([]Leaf, error) {
	var out []Leaf
	pos := 0
	for _, op := range ops {
		switch op.Kind {
		case OpRetain:
			if pos+int(op.Count) > len(src) {
				return nil, fmt.Errorf("mvcc: leaf retain past end (%d+%d > %d)", pos, op.Count, len(src))
			}
			out = append(out, src[pos:pos+int(op.Count)]...)
			pos += int(op.Count)
		case OpDelete:
			if pos+int(op.Count) > len(src) {
				return nil, fmt.Errorf("mvcc: leaf delete past end (%d+%d > %d)", pos, op.Count, len(src))
			}
			pos += int(op.Count)
		case OpInsert:
			out = append(out, op.Ins...)
		default:
			return nil, fmt.Errorf("mvcc: unknown leaf op %d", op.Kind)
		}
	}
	if pos != len(src) {
		return nil, fmt.Errorf("mvcc: leaf script consumed %d of %d entries", pos, len(src))
	}
	return out, nil
}

const patchMagic = "PAT1"

// Size is the patch's length in bytes as a varint stream — the magic, the
// node count, then each op list as its length and per op a kind byte and
// either a count or its inserted entries — the "patch size" the update path
// and the versions benchmark compare against a full record rewrite. No
// format stores a patch; Size is the cost model alone.
func (p *Patch) Size() int {
	n := len(patchMagic) + varintLen(int64(p.NumNodes)) + uvarintLen(uint64(len(p.Pairs)))
	for _, op := range p.Pairs {
		n++
		if op.Kind != OpInsert {
			n += uvarintLen(uint64(op.Count))
			continue
		}
		n += uvarintLen(uint64(len(op.Ins)))
		for _, pr := range op.Ins {
			n += varintLen(int64(pr.N)) + uvarintLen(uint64(pr.L))
		}
	}
	n += uvarintLen(uint64(len(p.Leaves)))
	for _, op := range p.Leaves {
		n++
		if op.Kind != OpInsert {
			n += uvarintLen(uint64(op.Count))
			continue
		}
		n += uvarintLen(uint64(len(op.Ins)))
		for _, lf := range op.Ins {
			n += varintLen(int64(lf.Post)) + uvarintLen(uint64(lf.Sym))
		}
	}
	return n
}

// RewriteSize is Diff(nil, pairs, nil, leaves, nodes).Size(): the encoded
// size of the patch that writes a whole version from nothing, what an update
// would ship without a diff. It builds no patch.
func RewriteSize(pairs []Pair, leaves []Leaf, nodes int32) int {
	var pairOps [1]PairOp
	var leafOps [1]LeafOp
	p := Patch{NumNodes: nodes}
	if len(pairs) > 0 {
		pairOps[0] = PairOp{Kind: OpInsert, Ins: pairs}
		p.Pairs = pairOps[:]
	}
	if len(leaves) > 0 {
		leafOps[0] = LeafOp{Kind: OpInsert, Ins: leaves}
		p.Leaves = leafOps[:]
	}
	return p.Size()
}

// uvarintLen is the length of binary.AppendUvarint's encoding of v.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// varintLen is the length of binary.AppendVarint's (zigzag) encoding of v.
func varintLen(v int64) int { return uvarintLen(uint64(v<<1) ^ uint64(v>>63)) }
