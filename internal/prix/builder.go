package prix

import (
	"fmt"
	"os"

	"repro/internal/btree"
	"repro/internal/docstore"
	"repro/internal/pager"
	"repro/internal/vtrie"
	"repro/internal/xmltree"
)

// Builder constructs an Index incrementally, one document at a time, so
// large collections can be indexed without holding every parsed document
// in memory simultaneously. Build is a convenience wrapper around it.
//
//	b, _ := prix.NewBuilder(prix.Options{Extended: true, Dir: dir})
//	for doc := range stream {
//	    if err := b.Add(doc); err != nil { ... }
//	}
//	ix, err := b.Finalize()
type Builder struct {
	ix      *Index
	trie    *vtrie.Builder
	stats   buildStats
	nextID  uint32
	done    bool
	buildEr error
	// rec is the record each added document is interned into (addSeq).
	rec docstore.Record
}

// NewBuilder prepares an empty index per the options.
func NewBuilder(opts Options) (*Builder, error) {
	ix, err := newEmptyIndex(opts)
	if err != nil {
		return nil, err
	}
	return &Builder{ix: ix, trie: vtrie.NewBuilder()}, nil
}

// newEmptyIndex sets up storage for a fresh index. Both on-disk and
// in-memory indexes run the journaled atomic-commit protocol.
func newEmptyIndex(opts Options) (*Index, error) {
	var forestBP, docsBP *pager.BufferPool
	var err error
	if opts.Dir == "" {
		forestBP, docsBP, err = memPools(opts.pool())
	} else {
		if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("prix: %w", err)
		}
		forestBP, docsBP, err = openPools(&opts, opts.Dir)
	}
	if err != nil {
		return nil, err
	}
	forest, err := btree.Open(forestBP)
	if err != nil {
		return nil, err
	}
	store, err := docstore.NewStore(docsBP, &docstore.Dict{})
	if err != nil {
		return nil, err
	}
	ix := &Index{opts: opts, forest: forest, store: store, maxGap: map[vtrie.Symbol]int64{}}
	ix.io = ix.ioCounts
	if err := ix.openTrees(); err != nil {
		return nil, err
	}
	ix.initHot()
	return ix, nil
}

// Add stages one document. Documents receive sequential ids in Add order,
// ignoring any id already on the document.
func (b *Builder) Add(doc *xmltree.Document) error {
	if b.done {
		return fmt.Errorf("prix: Add after Finalize")
	}
	ds, err := Transform(b.nextID, doc, b.ix.opts.Extended)
	if err == nil {
		err = b.addSeq(ds)
	}
	if err != nil {
		b.buildEr = err
		return err
	}
	b.nextID++
	return nil
}

// NumAdded returns how many documents have been staged.
func (b *Builder) NumAdded() int { return int(b.nextID) }

// Finalize labels the virtual trie, writes all index structures and returns
// the queryable Index: FinalizeBulk with its sorted chunks kept in memory.
// The builder cannot be reused afterwards.
func (b *Builder) Finalize() (*Index, error) { return b.FinalizeBulk(BulkOptions{}) }
