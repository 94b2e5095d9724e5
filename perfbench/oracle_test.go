package main

import (
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/registry"
)

// path4 is the path 0-1-2-3 with node weights 1..4 and edge weights 10, 20, 30.
func path4(t *testing.T) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(4)
	for v := 0; v < 3; v++ {
		if err := b.AddEdge(v, v+1); err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 4; v++ {
		g.SetNodeWeight(v, int64(v+1))
	}
	for id := 0; id < 3; id++ {
		g.SetEdgeWeight(id, int64(10*(id+1)))
	}
	return g
}

func TestValidateRejectsBadAnswers(t *testing.T) {
	g := path4(t)
	for _, tc := range []struct {
		name string
		algo string
		out  output
		want string // "" = valid
	}{
		{"independent", "maxis", output{inSet: []bool{true, false, false, true}, weight: 5, size: 2}, ""},
		{"adjacent pair", "maxis", output{inSet: []bool{true, true, false, false}, weight: 3, size: 2}, "joins in-set"},
		{"wrong weight", "maxis", output{inSet: []bool{false, true, false, true}, weight: 7, size: 2}, "reported"},
		{"short vector", "maxis", output{inSet: []bool{true}, weight: 1, size: 1}, "entries"},
		{"matching", "mwm2", output{edges: []int{0, 2}, weight: 40, size: 2}, ""},
		{"shared node", "mwm2", output{edges: []int{0, 1}, weight: 30, size: 2}, "share"},
		{"unknown edge", "mwm2", output{edges: []int{7}, weight: 0, size: 1}, "names edge"},
	} {
		err := validate(g, tc.algo, tc.out)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}

// TestCheckServedCatchesADifferentAnswer feeds the oracle a served cell
// whose cost differs from repro.Run's and one below the approximation
// guarantee; both must fail while the right answer passes.
func TestCheckServedCatchesADifferentAnswer(t *testing.T) {
	g := path4(t)
	graphs := map[string]*graph.Graph{"p": g}
	spec, ok := registry.Get("mwm2")
	if !ok {
		t.Fatal("mwm2 not registered")
	}
	r, err := spec.Run(g, registry.Params{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	right := output{edges: r.Edges, weight: r.Weight, size: r.Size(), cost: r.Cost}
	cell := func(o output) *recorder {
		rec := newRecorder()
		rec.addBatch(batchOut{}, []cellOut{{graph: "p", algo: "mwm2", seed: 3, out: o}})
		return rec
	}
	exactOpt := func(string, string) (int64, bool) { return exactOptimum(g, "matching") }
	if bad := checkServed(cell(right), graphs, exactOpt); len(bad) > 0 {
		t.Fatalf("the right answer failed: %v", bad)
	}
	wrongCost := right
	wrongCost.cost.Messages++
	if bad := checkServed(cell(wrongCost), graphs, nil); len(bad) != 1 {
		t.Errorf("a cell whose cost differs from repro.Run passed: %v", bad)
	}
	tooHigh := func(string, string) (int64, bool) { return 2*right.weight + 1, true }
	if bad := checkServed(cell(right), graphs, tooHigh); len(bad) != 1 || !strings.Contains(bad[0], "below optimum") {
		t.Errorf("a cell below half the optimum passed: %v", bad)
	}
}
