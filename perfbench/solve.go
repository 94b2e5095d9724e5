package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"repro"
	"repro/internal/graph"
	"repro/internal/registry"
)

// solveCall is one named library call of the solve workload.
type solveCall struct {
	name string
	algo string
	n    int
	deg  float64
}

// solveCalls is the solve workload's fixed call list: the two MaxIS
// algorithms on a sparse graph, the two matching algorithms on a smaller
// sparse graph, and mwm2 where line-graph nodes have degree ≈60 so the agg
// memo matters.
var solveCalls = []solveCall{
	{"maxis-sparse", "maxis", 10000, 8},
	{"maxis-det-sparse", "maxis-det", 10000, 8},
	{"mwm2-sparse", "mwm2", 4000, 8},
	{"fastmwm-sparse", "fastmwm", 4000, 8},
	{"mwm2-dense", "mwm2", 1000, 32},
}

// solveAlgoSeed is the algorithm seed of every solve call; the graphs vary
// with the workload seed.
const solveAlgoSeed = 7

// solveWorkload runs the call list through repro.Run on one goroutine with
// the sequential engine, pass after pass.
type solveWorkload struct {
	seed   uint64
	calls  []solveCall
	graphs map[string]*graph.Graph // by graphKey
	passes int
}

// solveVariants is how many graphs of each shape a set-up generates. Pass p
// of a window uses variant p mod solveVariants, so a run's medians span
// several graphs instead of hinging on one graph's round count.
const solveVariants = 3

func graphKey(n int, deg float64, variant int) string {
	return fmt.Sprintf("n%d-d%g-v%d", n, deg, variant)
}

func (w *solveWorkload) setUp(tr *tracer) error {
	root := tr.begin("setup", "solve", 0)
	defer root.end()
	gen, ok := registry.GetGenerator("gnp-sparse")
	if !ok {
		return fmt.Errorf("no gnp-sparse generator")
	}
	w.graphs = make(map[string]*graph.Graph)
	for v := range solveVariants {
		for i, c := range w.calls {
			key := graphKey(c.n, c.deg, v)
			if w.graphs[key] != nil {
				continue
			}
			sp := tr.begin("graph.GenSpec.Build", key, root.id())
			g, err := gen.Build(registry.GenParams{
				N: c.n, P: c.deg / float64(c.n-1), Seed: w.seed*1000 + uint64(10*v+i), MaxW: 256,
			})
			sp.end()
			if err != nil {
				return err
			}
			w.graphs[key] = g
		}
	}
	return nil
}

func (w *solveWorkload) setUpCounts() map[string]counts { return nil }

func (w *solveWorkload) tearDown() { w.graphs = nil }

// run makes whole passes over the call list until the deadline has passed
// (at least one pass). A pass is the workload's batch; each call a cell.
// Every window starts on variant 0, so each has the same first pass.
func (w *solveWorkload) run(deadline time.Time, rec *recorder, tr *tracer) {
	for p := 0; p == 0 || time.Now().Before(deadline); p++ {
		w.passes++
		passID := fmt.Sprintf("pass-%d", w.passes)
		pass := tr.begin("solve.pass", passID, 0)
		start := time.Now()
		var cells []cellOut
		var b batchOut
		variant := p % solveVariants
		for _, c := range w.calls {
			key := graphKey(c.n, c.deg, variant)
			g := w.graphs[key]
			rec.attempt(1)
			var before, after runtime.MemStats
			if tr != nil {
				runtime.ReadMemStats(&before)
			}
			sp := tr.begin("registry.Spec.Run", c.name, pass.id())
			t0 := time.Now()
			res, err := repro.Run(c.algo, g, repro.WithSeed(solveAlgoSeed))
			d := time.Since(t0)
			sp.end()
			if tr != nil {
				runtime.ReadMemStats(&after)
				rec.sample("registry.allocs."+c.name, float64(after.Mallocs-before.Mallocs))
				rec.sample("registry.run_s."+c.name, d.Seconds())
			}
			if err != nil {
				rec.fail(1, "%s: %v", c.name, err)
				continue
			}
			out := output{inSet: res.InSet, edges: res.Edges, weight: res.Weight, size: res.Size, cost: costOf(res.Cost)}
			if res.Trace != nil {
				out.memoHits, out.memoMisses = res.Trace.MemoHits, res.Trace.MemoMisses
			}
			if len(cells) == 0 {
				b.first = time.Since(start)
			}
			cells = append(cells, cellOut{
				call: c.name, graph: key, algo: c.algo,
				seed: solveAlgoSeed, latency: d, out: out,
			})
		}
		b.total = time.Since(start)
		pass.end()
		rec.addBatch(b, cells)
	}
}

func (w *solveWorkload) layerMetrics(rec *recorder, r *report) {
	for _, c := range w.calls {
		if xs := rec.samples["registry.run_s."+c.name]; len(xs) > 0 {
			r.add("registry.run_s."+c.name, median(xs), "s", len(xs))
		}
		if xs := rec.samples["registry.allocs."+c.name]; len(xs) > 0 {
			r.add("registry.allocs."+c.name, median(xs), "count", len(xs))
			r.add("registry.allocs."+c.name+".spread", slices.Max(xs)-slices.Min(xs), "count", len(xs))
		}
	}
	per, _ := w.windowCounts(rec)
	for _, c := range w.calls {
		k, ok := per[c.name+"/"+graphKey(c.n, c.deg, 0)]
		if !ok {
			continue
		}
		r.add("simul.rounds."+c.name, float64(k.RealRounds), "count", 1)
		r.add("simul.messages."+c.name, float64(k.Messages), "count", 1)
		r.add("simul.bits."+c.name, float64(k.Bits), "count", 1)
		if base := k.MemoHits + k.MemoMisses; base > 0 {
			r.add("agg.memo_hit_ratio."+c.name, float64(k.MemoHits)/float64(base), "ratio", int(base))
		}
	}
	addMemoRatio(r, rec)
}

// addMemoRatio adds agg.memo_hit_ratio over every computed cell of rec.
func addMemoRatio(r *report, rec *recorder) {
	var hits, misses uint64
	for c := range rec.allCells() {
		if !c.cacheHit {
			hits += c.out.memoHits
			misses += c.out.memoMisses
		}
	}
	if base := hits + misses; base > 0 {
		r.add("agg.memo_hit_ratio", float64(hits)/float64(base), "ratio", int(base))
	}
}

// windowCounts returns the counts of each call on each graph variant,
// keyed "<call>/<graph>"; every pass on the same variant must repeat them.
func (w *solveWorkload) windowCounts(rec *recorder) (map[string]counts, []string) {
	out := map[string]counts{}
	var problems []string
	for c := range rec.allCells() {
		var k counts
		k.add(c.out)
		key := c.call + "/" + c.graph
		if prev, ok := out[key]; ok && prev != k {
			problems = append(problems, fmt.Sprintf("%s: counts %+v, earlier pass %+v", key, k, prev))
			continue
		}
		out[key] = k
	}
	return out, problems
}

// check validates every answer and requires every pass on the same graph
// to give the same answer per call: the library path is its own reference.
func (w *solveWorkload) check(rec *recorder) []string {
	var problems []string
	first := map[string]output{}
	for c := range rec.allCells() {
		key := c.call + "/" + c.graph
		if err := validate(w.graphs[c.graph], c.algo, c.out); err != nil {
			problems = append(problems, fmt.Sprintf("%s: %v", key, err))
			continue
		}
		if ref, ok := first[key]; ok {
			if err := sameAnswer(c.out, ref); err != nil {
				problems = append(problems, fmt.Sprintf("%s: pass %d differs: %v", key, c.batch+1, err))
			}
			continue
		}
		first[key] = c.out
	}
	return problems
}
