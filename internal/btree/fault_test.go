package btree

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/pager"
	"repro/internal/pager/pagertest"
)

// Failure injection: every storage error must surface as an error return,
// never as a panic or silent corruption, and the tree must remain usable
// for reads once the fault heals.
func TestInjectedReadFaultsSurface(t *testing.T) {
	fault := pagertest.NewFaultFile(pager.NewMemFile())
	bp := pager.NewBufferPool(fault, 4) // tiny pool: reads hit the file
	f, err := Open(bp)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := f.Tree("t")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3000; i++ {
		if err := tr.Insert(KeyUint64(uint64(i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := bp.DropAll(); err != nil {
		t.Fatal(err)
	}
	// Fail on a read mid-scan.
	sawErr := false
	for n := 0; n < 10 && !sawErr; n++ {
		if err := bp.DropAll(); err != nil {
			t.Fatal(err)
		}
		fault.FailReadsAfter(n)
		err := tr.Scan(nil, nil, true, true, func(k, v []byte) bool { return true })
		if err != nil {
			if !errors.Is(err, pagertest.ErrInjected) {
				t.Fatalf("unexpected error type: %v", err)
			}
			sawErr = true
		}
		fault.Heal()
	}
	if !sawErr {
		t.Fatal("no injected read fault surfaced")
	}
	// After healing, a full scan succeeds and sees every entry.
	fault.Heal()
	if err := bp.DropAll(); err != nil {
		t.Fatal(err)
	}
	count := 0
	if err := tr.Scan(nil, nil, true, true, func(k, v []byte) bool { count++; return true }); err != nil {
		t.Fatal(err)
	}
	if count != 3000 {
		t.Fatalf("post-heal scan saw %d entries, want 3000", count)
	}
}

func TestInjectedWriteFaultsSurface(t *testing.T) {
	fault := pagertest.NewFaultFile(pager.NewMemFile())
	bp := pager.NewBufferPool(fault, 2) // evictions force write-backs
	f, err := Open(bp)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := f.Tree("t")
	if err != nil {
		t.Fatal(err)
	}
	fault.FailWritesAfter(5)
	sawErr := false
	for i := 0; i < 5000; i++ {
		if err := tr.Insert(KeyUint64(uint64(i)), []byte("value")); err != nil {
			if !errors.Is(err, pagertest.ErrInjected) {
				t.Fatalf("unexpected error: %v", err)
			}
			sawErr = true
			break
		}
	}
	if !sawErr {
		t.Fatal("no injected write fault surfaced")
	}
}

func TestGetOnCorruptKindFails(t *testing.T) {
	mem := pager.NewMemFile()
	bp := pager.NewBufferPool(mem, 8)
	f, err := Open(bp)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := f.Tree("t")
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Insert([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := f.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := bp.DropAll(); err != nil {
		t.Fatal(err)
	}
	// Smash the root page's kind byte behind the pool's back.
	buf := make([]byte, pager.PageSize)
	if err := mem.ReadPage(tr.root, buf); err != nil {
		t.Fatal(err)
	}
	buf[0] = 99
	if err := mem.WritePage(tr.root, buf); err != nil {
		t.Fatal(err)
	}
	if err := tr.Insert([]byte("x"), []byte("y")); err == nil {
		t.Error("insert into corrupt page succeeded")
	}
}

func BenchmarkForestFlush(b *testing.B) {
	f := memForest(b)
	for i := 0; i < 50; i++ {
		tr, _ := f.Tree(fmt.Sprintf("tree-%02d", i))
		for j := 0; j < 100; j++ {
			tr.Insert(KeyUint64(uint64(j)), []byte("v"))
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.Flush(); err != nil {
			b.Fatal(err)
		}
	}
}
