package main

import (
	"fmt"
	"sync"

	"repro"
	"repro/internal/exact"
	"repro/internal/graph"
	"repro/internal/registry"
)

// This file is the correctness oracle. It runs only after a timed window,
// on outputs the window stored. Validity is checked from the graph's edge
// list alone, independently of the program's own checkers.

// validate checks that out is a valid answer of algo's kind on g and that
// its reported weight and size are the answer's own.
func validate(g *graph.Graph, algo string, out output) error {
	if kindOf(algo) == "matching" {
		return validMatching(g, out)
	}
	return validIS(g, out)
}

func validIS(g *graph.Graph, out output) error {
	if len(out.inSet) != g.N() {
		return fmt.Errorf("independent set has %d entries for %d nodes", len(out.inSet), g.N())
	}
	for id, e := range g.Edges() {
		if out.inSet[e.U] && out.inSet[e.V] {
			return fmt.Errorf("edge %d joins in-set nodes %d and %d", id, e.U, e.V)
		}
	}
	var w int64
	size := 0
	for v, in := range out.inSet {
		if in {
			w += g.NodeWeight(v)
			size++
		}
	}
	if w != out.weight || size != out.size {
		return fmt.Errorf("independent set weighs %d with %d nodes, reported %d with %d", w, size, out.weight, out.size)
	}
	return nil
}

func validMatching(g *graph.Graph, out output) error {
	used := make([]bool, g.N())
	var w int64
	for _, id := range out.edges {
		if id < 0 || id >= g.M() {
			return fmt.Errorf("matching names edge %d of %d", id, g.M())
		}
		e := g.EdgeByID(id)
		if used[e.U] || used[e.V] {
			return fmt.Errorf("matching edges share node %d or %d", e.U, e.V)
		}
		used[e.U], used[e.V] = true, true
		w += g.EdgeWeight(id)
	}
	if w != out.weight || len(out.edges) != out.size {
		return fmt.Errorf("matching weighs %d with %d edges, reported %d with %d", w, len(out.edges), out.weight, out.size)
	}
	return nil
}

// sameAnswer compares weight, size and cost.
func sameAnswer(got, want output) error {
	if got.weight != want.weight || got.size != want.size || got.cost != want.cost {
		return fmt.Errorf("weight %d size %d cost %+v, reference weight %d size %d cost %+v",
			got.weight, got.size, got.cost, want.weight, want.size, want.cost)
	}
	return nil
}

// costOf converts the facade's cost to the registry's, the form served
// results carry.
func costOf(c repro.CostStats) registry.Cost {
	return registry.Cost{
		Rounds: c.Rounds, RealRounds: c.RealRounds, Messages: c.Messages, Bits: c.Bits,
		MaxMessageBits: c.MaxMessageBits, BitBudget: c.BitBudget,
	}
}

// cellRef names one (graph, algorithm, seed) answer.
type cellRef struct {
	graph string
	algo  string
	seed  uint64
}

// references computes repro.Run for every distinct cell of rec, on two
// goroutines, and returns the answers by cell.
func references(rec *recorder, graphs map[string]*graph.Graph) (map[cellRef]output, []string) {
	refs := map[cellRef]output{}
	var todo []cellRef
	for c := range rec.allCells() {
		k := cellRef{c.graph, c.algo, c.seed}
		if _, ok := refs[k]; !ok {
			refs[k] = output{}
			todo = append(todo, k)
		}
	}
	var (
		mu       sync.Mutex
		wg       sync.WaitGroup
		problems []string
		next     = make(chan cellRef)
	)
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range next {
				res, err := repro.Run(k.algo, graphs[k.graph], repro.WithSeed(k.seed))
				mu.Lock()
				if err != nil {
					problems = append(problems, fmt.Sprintf("reference %s/%s/%d: %v", k.graph, k.algo, k.seed, err))
				} else {
					refs[k] = output{weight: res.Weight, size: res.Size, cost: costOf(res.Cost)}
				}
				mu.Unlock()
			}
		}()
	}
	for _, k := range todo {
		next <- k
	}
	close(next)
	wg.Wait()
	return refs, problems
}

// checkServed validates every cell of rec against its graph and requires it
// to equal repro.Run of the same (graph, algorithm, seed). When optimum is
// non-nil it also checks the approximation guarantee against the exact
// optimum it returns for a cell's graph and kind.
func checkServed(rec *recorder, graphs map[string]*graph.Graph, optimum func(graph, kind string) (int64, bool)) []string {
	refs, problems := references(rec, graphs)
	for c := range rec.allCells() {
		g := graphs[c.graph]
		where := fmt.Sprintf("%s/%s seed %d", c.graph, c.algo, c.seed)
		if err := validate(g, c.algo, c.out); err != nil {
			problems = append(problems, where+": "+err.Error())
			continue
		}
		if err := sameAnswer(c.out, refs[cellRef{c.graph, c.algo, c.seed}]); err != nil {
			problems = append(problems, where+": "+err.Error())
			continue
		}
		if optimum == nil {
			continue
		}
		// maxis and maxis-det are ∆-approximations (Thm 2.3, §2.3), mwm2 a
		// 2-approximation (Thm 2.10).
		var factor int64
		switch c.algo {
		case "maxis", "maxis-det":
			factor = int64(max(g.MaxDegree(), 1))
		case "mwm2":
			factor = 2
		default:
			continue
		}
		opt, ok := optimum(c.graph, kindOf(c.algo))
		if ok && c.out.weight*factor < opt {
			problems = append(problems, fmt.Sprintf("%s: weight %d below optimum %d / %d", where, c.out.weight, opt, factor))
		}
	}
	return problems
}

// exactOptimum returns the exact maximum weight of an independent set or a
// matching of g, where internal/exact accepts the graph.
func exactOptimum(g *graph.Graph, kind string) (int64, bool) {
	var w int64
	var err error
	if kind == "is" {
		_, w, err = exact.MaxWeightIndependentSet(g)
	} else {
		_, w, err = exact.MaxWeightMatchingBrute(g)
	}
	return w, err == nil
}
