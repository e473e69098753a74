package twigtest

import (
	"testing"

	"repro/internal/twig"
	"repro/internal/xmltree/xmltreetest"
)

func TestArrangements(t *testing.T) {
	q := twig.MustParse(`//a[./b][./c]/d`)
	arr, truncated := Arrangements(q, 100)
	if truncated {
		t.Error("unexpected truncation")
	}
	// Three children permute into 6 arrangements.
	if len(arr) != 6 {
		t.Fatalf("arrangements = %d, want 6", len(arr))
	}
	if arr[0].String() != q.String() {
		t.Error("original arrangement must come first")
	}
	seen := map[string]bool{}
	for _, a := range arr {
		if seen[a.String()] {
			t.Errorf("duplicate arrangement %s", a)
		}
		seen[a.String()] = true
	}
	// Identical branches collapse.
	q2 := twig.MustParse(`//a[./b][./b]`)
	arr2, _ := Arrangements(q2, 100)
	if len(arr2) != 1 {
		t.Errorf("identical branches gave %d arrangements, want 1", len(arr2))
	}
	// Truncation.
	q3 := twig.MustParse(`//a[./b][./c][./d][./e][./f]/g`)
	arr3, trunc3 := Arrangements(q3, 10)
	if !trunc3 || len(arr3) != 10 {
		t.Errorf("truncation failed: %d %v", len(arr3), trunc3)
	}
}

// TestUnorderedViaArrangements: an ordered twig whose siblings the document
// holds the other way round matches in one of its arrangements.
func TestUnorderedViaArrangements(t *testing.T) {
	doc := xmltreetest.MustFromSExpr(1, `(a (b) (c))`)
	total := 0
	arr, _ := Arrangements(twig.MustParse(`//a[./c]/b`), 10)
	for _, a := range arr {
		total += len(twig.MatchBruteForce(a, doc))
	}
	if total != 1 {
		t.Errorf("unordered a[c]/b = %d, want 1", total)
	}
}
