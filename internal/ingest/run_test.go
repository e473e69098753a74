package ingest

import (
	"bytes"
	"io"
	"path/filepath"
	"testing"

	"repro/internal/datagen"
	"repro/internal/pager"
	"repro/internal/prix"
)

// TestRunReaderAllocs: a run reader decodes every record into the one
// DocSeq it owns, so once its buffers have grown to the largest record Next
// allocates nothing (the DocSeq, its four slices and a string copy of the
// record were six objects a record before). Each record read back, through
// the reused DocSeq, still re-encodes to exactly what was written.
func TestRunReaderAllocs(t *testing.T) {
	ds := datagen.DBLP(1, 1)
	path := filepath.Join(t.TempDir(), "run-0000")
	w, err := newRunWriter(pager.OSFS{}, path)
	if err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	for pass := 0; pass < 2; pass++ { // the corpus twice: warm up, then measure
		for i, doc := range ds.Docs {
			seq, err := prix.Transform(uint32(pass*len(ds.Docs)+i), doc, true)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, encodeDocSeq(nil, seq))
			if err := w.add(seq); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.seal(); err != nil {
		t.Fatal(err)
	}
	r, err := openRun(pager.OSFS{}, path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	read := 0
	var enc []byte
	next := func() {
		seq, err := r.next()
		if err != nil {
			t.Fatalf("record %d: %v", read, err)
		}
		if enc = encodeDocSeq(enc[:0], seq); !bytes.Equal(enc, want[read]) {
			t.Fatalf("record %d reads back as a different DocSeq", read)
		}
		read++
	}
	for read < len(ds.Docs) {
		next()
	}
	if got := testing.AllocsPerRun(len(ds.Docs)-1, next); got != 0 {
		t.Fatalf("a warmed RunReader.Next allocates %.2f objects a record, want 0", got)
	}
	if _, err := r.next(); err != io.EOF {
		t.Fatalf("after %d records: %v, want io.EOF", read, err)
	}
}
