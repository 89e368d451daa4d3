package main

import (
	"math/rand"
	"testing"
)

func TestAttributionSumsToRoot(t *testing.T) {
	root := Span{ID: 1, Job: 1, Name: "root", Start: 0, End: 100}
	spans := []Span{
		root,
		// Two concurrent shards under the root, overlapping on [20,40).
		{ID: 2, Parent: 1, Job: 1, Name: "shard", Start: 10, End: 40},
		{ID: 3, Parent: 1, Job: 1, Name: "shard", Start: 20, End: 60},
		// A nested child wins over its parent while active.
		{ID: 4, Parent: 3, Job: 1, Name: "inner", Start: 45, End: 50},
		// Equally deep: the shorter span wins while both are active, even
		// though the longer one started later.
		{ID: 7, Parent: 1, Job: 1, Name: "wait", Start: 62, End: 85},
		{ID: 8, Parent: 1, Job: 1, Name: "work", Start: 61, End: 70},
		// Clipped to the root interval.
		{ID: 5, Parent: 1, Job: 1, Name: "late", Start: 90, End: 130},
		// Another job's span is ignored.
		{ID: 6, Parent: 0, Job: 6, Name: "other", Start: 0, End: 100},
	}
	got := attribution(root, spans)
	want := map[string]int64{"shard": 45, "inner": 5, "work": 9, "wait": 15, "late": 10, unattributed: 16}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("self[%s] = %d, want %d", k, got[k], v)
		}
	}
	if len(got) != len(want) {
		t.Errorf("attribution has %d names, want %d: %v", len(got), len(want), got)
	}
}

// Random span forests: the rows always add up to the total exactly.
func TestLayerTableRowsSumToTotal(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var spans []Span
	id := int64(0)
	for op := 0; op < 20; op++ {
		id++
		root := Span{ID: id, Job: id, Name: "experiments.RunSpec", Phase: phaseSweep, Start: int64(op * 1000)}
		root.End = root.Start + 500 + rng.Int63n(400)
		spans = append(spans, root)
		parents := []int64{root.ID}
		for k := 0; k < 15; k++ {
			id++
			s := Span{ID: id, Parent: parents[rng.Intn(len(parents))], Job: root.Job,
				Name: []string{"a", "b", "c"}[rng.Intn(3)], Phase: phaseSweep}
			s.Start = root.Start - 50 + rng.Int63n(700)
			s.End = s.Start + rng.Int63n(300)
			spans = append(spans, s)
			parents = append(parents, s.ID)
		}
	}
	lt := buildLayerTable(phaseSweep, "experiments.RunSpec", spans)
	if lt.Ops != 20 {
		t.Fatalf("table has %d ops, want 20", lt.Ops)
	}
	if d := lt.sumCheck(); d != 0 {
		t.Fatalf("rows sum to total %+d ns off", d)
	}
}
