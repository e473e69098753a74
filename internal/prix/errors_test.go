package prix

import (
	"context"
	"errors"
	"fmt"
	"io"
	"testing"

	"repro/internal/docstore"
	"repro/internal/pager"
	"repro/internal/pager/pagertest"
	"repro/internal/xmltree"
)

func TestClassify(t *testing.T) {
	injected := pagertest.Injected("read") // a FaultFile's, as an OS read error comes
	cases := []struct {
		err  error
		want ErrorClass
	}{
		{nil, ClassPermanent},
		{context.Canceled, ClassCanceled},
		{fmt.Errorf("prix: match canceled: %w", context.DeadlineExceeded), ClassCanceled},
		{pager.ErrCorrupt, ClassCorruption},
		{&pager.CorruptPageError{Page: 3, Reason: "checksum mismatch"}, ClassCorruption},
		{fmt.Errorf("docstore: document 2: %w: bad varint", docstore.ErrBadRecord), ClassCorruption},
		{fmt.Errorf("docstore: document 2: %w", docstore.ErrQuarantined), ClassCorruption},
		{injected, ClassTransient},
		{fmt.Errorf("wrapped: %w", injected), ClassTransient},
		{fmt.Errorf("prix: something else"), ClassPermanent},
		// Multi-error chains (errors.Join) must be unwrapped down both arms.
		{errors.Join(io.EOF, context.Canceled), ClassCanceled},
		// Corruption outranks cancellation: a checksum failure surfaced while
		// a deadline was expiring must still be treated as damage.
		{errors.Join(pager.ErrCorrupt, context.DeadlineExceeded), ClassCorruption},
		{errors.Join(context.Canceled, fmt.Errorf("doc: %w", docstore.ErrBadRecord)), ClassCorruption},
		// Parser resource limits are permanent: retrying the same document
		// can never succeed.
		{&xmltree.LimitError{What: "element depth", Limit: 512}, ClassPermanent},
		{fmt.Errorf("ingest: %w", &xmltree.LimitError{What: "token size", Limit: 1 << 20}), ClassPermanent},
	}
	for _, c := range cases {
		if got := Classify(c.err); got != c.want {
			t.Errorf("Classify(%v) = %v, want %v", c.err, got, c.want)
		}
	}
	if !IsCorruption(pager.ErrCorrupt) || IsCorruption(injected) {
		t.Error("IsCorruption misclassifies")
	}
	if !IsTransient(injected) || IsTransient(pager.ErrCorrupt) {
		t.Error("IsTransient misclassifies")
	}
}
