package registry

// Count pins: the agg runtimes may change how they compute (fold reuse,
// memo layout) but never what the paper's cost model counts. These values
// are the exact rounds, messages, bits and exchange-folding memo hits and
// misses of maxis and mwm2 on one fixed graph, recorded before fold reuse
// existed; the benchmark's counts check (perfbench/counts.json) guards the
// same invariant on its larger graphs.

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/rng"
)

func TestCountPinMaxISAndMWM2(t *testing.T) {
	g := graph.GNP(120, 0.06, rng.New(31))
	graph.AssignUniformNodeWeights(g, 256, rng.New(32))
	graph.AssignUniformEdgeWeights(g, 256, rng.New(33))
	if g.M() != 440 {
		t.Fatalf("pin graph has %d edges, want 440: the generator changed, re-derive the pins", g.M())
	}
	pins := []struct {
		algo         string
		weight       int64
		cost         Cost
		hits, misses uint64
	}{
		{"maxis", 5614, Cost{Rounds: 142, RealRounds: 143, Messages: 49736, Bits: 1624598, MaxMessageBits: 45, BitBudget: 112}, 0, 0},
		{"mwm2", 10016, Cost{Rounds: 221, RealRounds: 443, Messages: 56232, Bits: 1242821, MaxMessageBits: 53, BitBudget: 112}, 144986, 78924},
	}
	prev := obs.SetEnabled(true)
	defer obs.SetEnabled(prev)
	for _, p := range pins {
		spec, ok := Get(p.algo)
		if !ok {
			t.Fatalf("%s not registered", p.algo)
		}
		res, err := spec.Run(g, Params{Seed: 7})
		if err != nil {
			t.Fatalf("%s: %v", p.algo, err)
		}
		if res.Weight != p.weight || res.Cost != p.cost {
			t.Errorf("%s: weight %d cost %+v, want %d %+v", p.algo, res.Weight, res.Cost, p.weight, p.cost)
		}
		if tr := res.Trace; tr.MemoHits != p.hits || tr.MemoMisses != p.misses {
			t.Errorf("%s: memo hits/misses %d/%d, want %d/%d", p.algo, tr.MemoHits, tr.MemoMisses, p.hits, p.misses)
		}
		if res.Trace.FoldReuse == 0 {
			t.Errorf("%s: no fold reused across rounds", p.algo)
		}
	}
}
