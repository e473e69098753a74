package prix

import (
	"encoding/binary"
	"slices"
)

// This file holds the scheduler that spreads one query over workers. Two
// independent axes of the read-only query path are decomposed:
//
//   - within one query (or one part of a split twig, split.go), the
//     Algorithm 1 walk (descent, match.go) hands trie subtrees to free
//     workers, and every walker refines the candidates it finds where it
//     finds them (refineInline), as the walk does at Parallelism 1; reduce
//     merges the walkers' survivors;
//   - single-node queries shard the document scan (single.go).
//
// Determinism contract: when the walk can spawn, every staged survivor keeps
// its descent path, which orders survivors exactly as a depth-first walk on
// one goroutine finds them, and the reduction dedups in that order — so any
// Parallelism setting returns byte-identical matches and identical stats.
// Walkers write only their own QueryStats slot; the slots are merged after
// the walk joins.

// reduce merges the survivors of a walk that could spawn onto sc's stage:
// the branches' (handed to sc.found as each finished) and the root walk's own.
// Each walker kept the first of its own duplicate embeddings; restaging them
// all in descent-path order — the order a walk on one goroutine finds them —
// and deduplicating again keeps exactly the witness that walk keeps.
func (sc *scratch) reduce() {
	all, st := &sc.found, &sc.stage
	all.absorb(st)
	w := len(sc.path)
	order := sc.order[:0]
	for k := range all.ids {
		order = append(order, int32(k))
	}
	slices.SortFunc(order, func(a, b int32) int {
		return slices.Compare(all.paths[int(a)*w:int(a+1)*w], all.paths[int(b)*w:int(b+1)*w])
	})
	st.reset(st.ls, st.m)
	for _, k := range order {
		st.pushCopy(all, int(k))
		st.keepLast()
	}
	sc.order = order
}

// dropSameImageSets drops, in place, every match whose document and image
// set an earlier match has: an unordered join finds one image set once per
// way its differing sibling branches can trade images (mayRepeat).
func dropSameImageSets(ms []Match) []Match {
	if len(ms) < 2 {
		return ms
	}
	seen := make(map[string]struct{}, len(ms))
	var imgs []int32
	var key []byte
	out := ms[:0]
	for _, m := range ms {
		imgs = append(imgs[:0], m.Images...)
		slices.Sort(imgs)
		key = appendKey(key[:0], m.DocID, imgs)
		if _, dup := seen[string(key)]; dup {
			continue
		}
		seen[string(key)] = struct{}{}
		out = append(out, m)
	}
	return out
}

// appendKey renders a document id plus a position (or image) list as
// map-key bytes: the unordered image-set dedup key.
func appendKey(b []byte, docID uint32, vals []int32) []byte {
	b = binary.LittleEndian.AppendUint32(b, docID)
	for _, v := range vals {
		b = binary.LittleEndian.AppendUint32(b, uint32(v))
	}
	return b
}
