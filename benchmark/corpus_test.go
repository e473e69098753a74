package main

import (
	"testing"

	"repro/internal/prix"
)

func population(t *testing.T, seed int64) ([]query, *corpus) {
	t.Helper()
	c, err := makeCorpus(quickSizes.scale, seed)
	if err != nil {
		t.Fatal(err)
	}
	qs, err := makeQueries(c, seed, quickSizes.perShape)
	if err != nil {
		t.Fatal(err)
	}
	return qs, c
}

// TestSeededSequenceDeterminism: the same seeds must give the same queries
// in the same order; another op seed reorders the same population, another
// data seed changes the population itself.
func TestSeededSequenceDeterminism(t *testing.T) {
	hash := func(dataSeed, seed int64) (string, string) {
		qs, _ := population(t, dataSeed)
		return sequenceHash(qs, opSequence(len(qs), seed)), sequenceHash(qs, zipfSequence(len(qs), 500, dataSeed, seed))
	}
	a1, z1 := hash(1, 1)
	a2, z2 := hash(1, 1)
	if a1 != a2 || z1 != z2 {
		t.Errorf("seeds 1/1 twice: %s/%s and %s/%s", a1, z1, a2, z2)
	}
	if b, y := hash(1, 2); a1 == b || z1 == y {
		t.Errorf("op seeds 1 and 2 gave the same sequence: %s/%s", a1, z1)
	}
	if b, y := hash(2, 1); a1 == b || z1 == y {
		t.Errorf("data seeds 1 and 2 gave the same sequence: %s/%s", a1, z1)
	}
	qs1, _ := population(t, 1)
	qs2, _ := population(t, 2)
	same := len(qs1) == len(qs2)
	for i := 0; same && i < len(qs1); i++ {
		same = qs1[i].src == qs2[i].src
	}
	if same {
		t.Errorf("data seeds 1 and 2 gave the same query population")
	}
}

// TestPopulationAnswers: every query has at least one match, the engine
// agrees with the brute-force count, and the planted counts are the
// paper's.
func TestPopulationAnswers(t *testing.T) {
	qs, c := population(t, 1)
	if len(qs) < 9+3*quickSizes.perShape {
		t.Fatalf("only %d queries generated", len(qs))
	}
	ix, err := prix.Build(c.docs, prix.Options{Extended: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	planted := 0
	seen := map[string]bool{}
	for _, q := range qs {
		if seen[q.src] {
			t.Errorf("duplicate query %s", q.src)
		}
		seen[q.src] = true
		if q.planted {
			planted++
		}
		if q.want < 1 {
			t.Errorf("%s has no match", q.src)
		}
		got, _, err := ix.Match(q.q, prix.MatchOptions{Parallelism: 1})
		if err != nil {
			t.Fatalf("%s: %v", q.src, err)
		}
		if len(got) != q.want {
			t.Errorf("%s: engine %d, brute force %d", q.src, len(got), q.want)
		}
	}
	if planted != 9 {
		t.Errorf("%d planted queries, want the paper's nine", planted)
	}
}
