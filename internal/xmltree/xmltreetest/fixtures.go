// Package xmltreetest holds the tree fixtures the repository's tests build
// their cases from: the paper's Figure 2 tree and twig, an s-expression form
// for small trees, and seeded random trees and subtree patterns for property
// tests. It is imported only by _test.go files.
package xmltreetest

import "repro/internal/xmltree"

// PaperTree builds the tree T of Figure 2(a) in the PRIX paper,
// reconstructed exactly from Example 1's sequences:
//
//	LPS(T) = A  C B C C B A  C A  E  E  E  D  A
//	NPS(T) = 15 3 7 6 6 7 15 9 15 13 13 13 14 15
//
// parent(i) = NPS[i] and label(parent(i)) = LPS[i] determine every edge and
// every non-leaf label; the leaf labels come from Example 6's leaf list.
// The tree is used throughout the test suites to check the paper's worked
// examples verbatim.
func PaperTree(id int) *xmltree.Document {
	return MustFromSExpr(id, `(A (C) (B (C (D)) (C (D) (E))) (C (G)) (D (E (G) (F) (F))))`)
}

// PaperQuery builds the query twig Q of Figure 2(b), reconstructed from
// Example 2: LPS(Q) = B A E D A, NPS(Q) = 2 6 4 5 6, with leaf labels
// (C,1) and (F,3) from Example 6.
//
//	A(6)
//	├── B(2)
//	│   └── C(1)
//	└── D(5)
//	    └── E(4)
//	        └── F(3)
func PaperQuery(id int) *xmltree.Document {
	return MustFromSExpr(id, `(A (B (C)) (D (E (F))))`)
}
