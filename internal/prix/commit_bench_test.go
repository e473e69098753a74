package prix

import (
	"sync/atomic"
	"testing"

	"repro/internal/datagen"
	"repro/internal/pager"
)

// pageCountingFile counts the page writes and syncs that reach the OS.
type pageCountingFile struct {
	pager.File
	writes, syncs *atomic.Int64
}

func (f pageCountingFile) WritePage(id pager.PageID, buf []byte) error {
	f.writes.Add(1)
	return f.File.WritePage(id, buf)
}

func (f pageCountingFile) Sync() error {
	f.syncs.Add(1)
	return f.File.Sync()
}

// BenchmarkCommitUpdate is the cost of one committed mutation: an Update on a
// 3,000-document EPIndex over real files (journals included), with the page
// writes and fsyncs per commit reported beside time and allocation.
func BenchmarkCommitUpdate(b *testing.B) {
	docs := append(datagen.DBLP(1, 1).Docs, datagen.SwissProt(2, 1).Docs...)[:3000]
	var writes, syncs atomic.Int64
	di, err := NewDynamicIndex(docs, Options{
		Extended:        true,
		Dir:             b.TempDir(),
		BufferPoolPages: 256,
		OpenFile: func(path string) (pager.File, error) {
			f, err := pager.OpenOSFilePadded(path)
			return pageCountingFile{f, &writes, &syncs}, err
		},
	}, DynamicOptions{Alpha: 4})
	if err != nil {
		b.Fatal(err)
	}
	defer di.Close()
	if err := di.Flush(); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 8; i++ { // the first mutation creates the version map
		if _, err := di.Update(uint32(i), variantDoc(docs[i], i)); err != nil {
			b.Fatal(err)
		}
	}
	writes.Store(0)
	syncs.Store(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := (8 + i*37) % len(docs)
		if _, err := di.Update(uint32(id), variantDoc(docs[id], i)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(writes.Load())/float64(b.N), "pages/op")
	b.ReportMetric(float64(syncs.Load())/float64(b.N), "syncs/op")
}
