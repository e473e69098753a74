package bench

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/prix"
	"repro/internal/twigstack"
)

func smallCfg() Config { return Config{Scale: 1, Seed: 1, PoolPages: 512} }

func TestBuildEnginesAndRun(t *testing.T) {
	ds := datagen.DBLP(1, 1)
	e, err := BuildEngines(ds, smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, qs := range ds.Queries {
		pr, err := e.RunPRIX(qs, prix.MatchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if pr.Count != qs.Want {
			t.Errorf("%s: PRIX count = %d, want %d", qs.ID, pr.Count, qs.Want)
		}
		tr, err := e.RunTwigStack(qs, twigstack.TwigStack)
		if err != nil {
			t.Fatal(err)
		}
		if tr.Count != qs.Want {
			t.Errorf("%s: TwigStack count = %d, want %d", qs.ID, tr.Count, qs.Want)
		}
		xr, err := e.RunTwigStack(qs, twigstack.TwigStackXB)
		if err != nil {
			t.Fatal(err)
		}
		if xr.Count != qs.Want {
			t.Errorf("%s: TwigStackXB count = %d, want %d", qs.ID, xr.Count, qs.Want)
		}
		vr, err := e.RunViST(qs)
		if err != nil {
			t.Fatal(err)
		}
		// ViST reports candidate documents: at least the matching docs.
		if vr.Count == 0 && qs.Want > 0 {
			t.Errorf("%s: ViST found no candidates", qs.ID)
		}
	}
}

func TestTable2And3Output(t *testing.T) {
	var buf bytes.Buffer
	s := NewSession(smallCfg())
	if err := s.Table2(&buf); err != nil {
		t.Fatal(err)
	}
	if err := s.Table3(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"DBLP", "SWISSPROT", "TREEBANK", "Q1", "Q9", "Max-depth"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}
