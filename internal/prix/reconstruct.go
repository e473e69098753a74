package prix

import (
	"fmt"
	"strings"

	"repro/internal/docstore"
	"repro/internal/prufer"
	"repro/internal/xmltree"
)

// ReconstructDocument rebuilds a document tree from the index alone,
// witnessing the one-to-one correspondence between trees and Prüfer
// sequences (§3.1): the stored NPS determines the shape, the LPS the
// internal labels, and the leaf list the leaf labels. For an EPIndex the
// dummy children added by the extension are stripped, so the result equals
// the original document either way. A document with no live version (deleted,
// or reclaimed by compaction) is an error wrapping ErrDocDeleted.
func (ix *Index) ReconstructDocument(docID uint32) (*xmltree.Document, error) {
	ix.repairMu.RLock()
	defer ix.repairMu.RUnlock()
	if int(docID) < ix.store.NumDocs() && !ix.docVisibleAt(docID, 0) {
		return nil, fmt.Errorf("prix: reconstruct document %d: %w", docID, ErrDocDeleted)
	}
	rec, err := ix.store.Get(docID)
	if err != nil {
		return nil, err
	}
	return ix.reconstructRecord(docID, rec)
}

// reconstructRecord rebuilds the document tree from an already-fetched
// record image. Callers hold repairMu.
func (ix *Index) reconstructRecord(docID uint32, rec *docstore.Record) (*xmltree.Document, error) {
	dict := ix.store.Dict()
	seq := &prufer.Sequence{N: int(rec.NumNodes)}
	for i := range rec.NPS {
		seq.Numbers = append(seq.Numbers, int(rec.NPS[i]))
		seq.Labels = append(seq.Labels, dict.Name(rec.LPS[i]))
	}
	leaves := make(map[int]string, len(rec.Leaves))
	for _, l := range rec.Leaves {
		leaves[int(l.Post)] = dict.Name(l.Sym)
	}
	doc, err := prufer.Reconstruct(seq, leaves)
	if err != nil {
		return nil, fmt.Errorf("prix: document %d: %w", docID, err)
	}
	doc.ID = int(docID)
	// Undo the value-namespacing prefix and mark value nodes.
	restoreValues(doc)
	if ix.opts.Extended {
		stripDummies(doc)
	}
	return doc, nil
}

// restoreValues converts namespaced value labels back to plain text and
// sets IsValue.
func restoreValues(doc *xmltree.Document) {
	for _, n := range doc.Nodes {
		if strings.HasPrefix(n.Label, valuePrefix) {
			n.Label = strings.TrimPrefix(n.Label, valuePrefix)
			n.IsValue = true
		}
	}
}

// stripDummies removes the dummy children an EPIndex added under every
// leaf and renumbers the document.
func stripDummies(doc *xmltree.Document) {
	var walk func(n *xmltree.Node)
	walk = func(n *xmltree.Node) {
		kept := n.Children[:0]
		for _, c := range n.Children {
			if prufer.IsDummy(c) {
				continue
			}
			walk(c)
			kept = append(kept, c)
		}
		n.Children = kept
	}
	walk(doc.Root)
	doc.Number()
}
