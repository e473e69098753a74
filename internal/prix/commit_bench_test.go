package prix

import (
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/datagen"
	"repro/internal/pager"
)

// fileCounter counts, per file name, the page writes and syncs that reach
// the OS through the OpenFile hook.
type fileCounter struct {
	mu            sync.Mutex
	writes, syncs map[string]int
}

type countedFile struct {
	pager.File
	name string
	c    *fileCounter
}

func (f countedFile) WritePage(id pager.PageID, buf []byte) error {
	f.c.mu.Lock()
	f.c.writes[f.name]++
	f.c.mu.Unlock()
	return f.File.WritePage(id, buf)
}

func (f countedFile) Sync() error {
	f.c.mu.Lock()
	f.c.syncs[f.name]++
	f.c.mu.Unlock()
	return f.File.Sync()
}

func (c *fileCounter) open(path string) (pager.File, error) {
	f, err := pager.OpenOSFilePadded(path)
	return countedFile{f, filepath.Base(path), c}, err
}

func (c *fileCounter) reset() {
	c.mu.Lock()
	c.writes, c.syncs = map[string]int{}, map[string]int{}
	c.mu.Unlock()
}

// total sums a per-file count.
func total(counts map[string]int) (n int) {
	for _, k := range counts {
		n += k
	}
	return n
}

// BenchmarkCommitUpdate is the cost of one committed mutation: an Update on a
// 3,000-document EPIndex over real files (the journal included), with the page
// writes and fsyncs per commit reported beside time and allocation.
func BenchmarkCommitUpdate(b *testing.B) {
	docs := append(datagen.DBLP(1, 1).Docs, datagen.SwissProt(2, 1).Docs...)[:3000]
	c := &fileCounter{}
	c.reset()
	di, err := NewDynamicIndex(docs, Options{
		Extended:        true,
		Dir:             b.TempDir(),
		BufferPoolPages: 256,
		OpenFile:        c.open,
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
	c.reset()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := (8 + i*37) % len(docs)
		if _, err := di.Update(uint32(id), variantDoc(docs[id], i)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(total(c.writes))/float64(b.N), "pages/op")
	b.ReportMetric(float64(total(c.syncs))/float64(b.N), "syncs/op")
}
