// Package fastmatch assembles the paper's time-optimal matching
// approximations (§3, Appendix B):
//
//   - MCM2Eps (Theorem 3.2): a (2+ε)-approximation of maximum cardinality
//     matching — the modified nearly-maximal independent set run on the line
//     graph in O(log∆/loglog∆) rounds.
//   - MWM2Eps (§B.1): the weighted extension via Lotker-style weight buckets
//     [LPSR09] plus O(1/ε) rounds of length-≤3 augmenting refinement
//     [LPSP15].
//   - OneEps (Theorem B.4): the (1+ε)-approximation of maximum cardinality
//     matching via Hopcroft–Karp phases with nearly-maximal hypergraph
//     matchings (re-exported from internal/augment).
//   - Proposal (Appendix B.4): the alternative simple (2+ε) algorithm —
//     left nodes propose along random remaining edges, right nodes accept
//     the highest ID, generalized to arbitrary graphs by random
//     bipartitions.
//
// Layer (DESIGN.md §2): fastmatch is part of the §3/§B algorithm layer,
// above internal/agg, internal/nmis and internal/augment, below
// internal/registry.
//
// Concurrency and ownership: every entry point is a synchronous run on the
// calling goroutine; input graphs are read-only and shareable, returned
// Results are owned by the caller.
package fastmatch

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/agg"
	"repro/internal/graph"
	"repro/internal/nmis"
	"repro/internal/simul"
)

// Result of a fast matching computation.
type Result struct {
	Edges  []int
	Weight int64
	// VirtualRounds is the algorithm's round complexity (virtual rounds on
	// the line graph where applicable).
	VirtualRounds int
	// Metrics totals the engine costs over every sub-run the algorithm
	// performed (all buckets and refinement iterations for MWM2Eps); Memo
	// totals the fold telemetry (agg.MemoStats).
	Metrics simul.Metrics
	Memo    agg.MemoStats
}

// MCM2Eps computes a (2+ε)-approximate maximum cardinality matching by
// running the §3.1 nearly-maximal independent set on L(g) through the
// Theorem 2.8 simulation (Theorem 3.2). K ≥ 2 is the probability factor
// (the paper's Θ(log^0.1 ∆)).
func MCM2Eps(g *graph.Graph, eps float64, k int, cfg simul.Config) (*Result, error) {
	if eps <= 0 || eps > 2 {
		return nil, fmt.Errorf("fastmatch: ε must be in (0,2], got %v", eps)
	}
	res, err := nmis.RunOnLine(g, nmis.Params{K: k, Delta: eps / 4}, cfg)
	if err != nil {
		return nil, err
	}
	out := &Result{VirtualRounds: res.VirtualRounds, Metrics: res.Metrics, Memo: res.Memo}
	for e, o := range res.Outcomes {
		if o == nmis.InSet {
			out.Edges = append(out.Edges, e)
			out.Weight += g.EdgeWeight(e)
		}
	}
	if !g.IsMatching(out.Edges) {
		return nil, fmt.Errorf("fastmatch: NMIS on L(G) produced a non-matching")
	}
	return out, nil
}

// bucketSubgraph builds the subgraph of g containing exactly the given edge
// IDs (all nodes retained) and a map from its edge IDs back to g's.
func bucketSubgraph(g *graph.Graph, ids []int) (*graph.Graph, []int) {
	sb := graph.NewBuilder(g.N())
	sb.Grow(len(ids))
	back := make([]int, 0, len(ids))
	for _, id := range ids {
		e := g.EdgeByID(id)
		if err := sb.AddWeightedEdge(e.U, e.V, g.EdgeWeight(id)); err != nil {
			panic(err) // ids come from g; cannot collide
		}
		back = append(back, id)
	}
	return sb.MustBuild(), back
}

// MWM2Eps computes a (2+ε)-approximate maximum weight matching following
// §B.1's weighted extension:
//
//  1. Bucket edges by weight into big buckets (powers of betaBucket) split
//     into small buckets (powers of 1+ε). Big buckets run in parallel
//     (simulated: rounds are the maximum over big buckets); small buckets
//     run highest-first, each one solved by the unweighted (2+ε) matcher,
//     removing incident edges within the big bucket afterwards.
//  2. Cross-bucket cleanup: keep a chosen edge iff it carries the largest
//     weight among chosen edges sharing an endpoint (ties by edge ID). This
//     yields Lotker et al.'s O(1)-approximation.
//  3. O(1/ε) iterations of length-≤3 augmentation: every non-matching edge
//     computes its auxiliary gain, the O(1)-approximate matcher runs on the
//     positive-gain edges, and the matching is augmented [LPSP15 §4].
func MWM2Eps(g *graph.Graph, eps float64, k int, cfg simul.Config) (*Result, error) {
	if eps <= 0 || eps > 2 {
		return nil, fmt.Errorf("fastmatch: ε must be in (0,2], got %v", eps)
	}
	refinements := int(math.Ceil(2 / eps))
	mate := make([]int, g.N())
	for v := range mate {
		mate[v] = -1
	}
	totalRounds := 0
	var metrics simul.Metrics
	var memo agg.MemoStats
	seed := cfg.Seed
	for iter := 0; iter <= refinements; iter++ {
		// Auxiliary gains relative to the current matching M: adding e and
		// dropping the matched edges at its endpoints changes the weight by
		// gain(e); on the first iteration M = ∅ and gain = weight.
		gains := make(map[int]int64, g.M())
		for id, e := range g.Edges() {
			if mate[e.U] == e.V {
				continue
			}
			gain := g.EdgeWeight(id)
			for _, end := range []int{e.U, e.V} {
				if m := mate[end]; m != -1 {
					mid, _ := g.EdgeID(end, m)
					gain -= g.EdgeWeight(mid)
				}
			}
			if gain > 0 {
				gains[id] = gain
			}
		}
		if len(gains) == 0 {
			break
		}
		sb := graph.NewBuilder(g.N())
		sb.Grow(len(gains))
		var back []int
		ids := make([]int, 0, len(gains))
		for id := range gains {
			ids = append(ids, id)
		}
		slices.Sort(ids)
		for _, id := range ids {
			e := g.EdgeByID(id)
			if err := sb.AddWeightedEdge(e.U, e.V, gains[id]); err != nil {
				return nil, err
			}
			back = append(back, id)
		}
		sub, err := sb.Build()
		if err != nil {
			return nil, err
		}
		chosen, rounds, m, err := bucketedConstApprox(sub, eps, k, cfg, seed+uint64(iter)*7919)
		if err != nil {
			return nil, err
		}
		totalRounds += rounds + 2 // +2: computing gains and applying flips
		metrics.Merge(m.Metrics)
		memo.Add(m.Memo)
		// Augment: add each chosen edge, dropping conflicting matched edges.
		for _, subID := range chosen {
			id := back[subID]
			e := g.EdgeByID(id)
			for _, end := range []int{e.U, e.V} {
				if m := mate[end]; m != -1 {
					mate[m] = -1
					mate[end] = -1
				}
			}
			mate[e.U], mate[e.V] = e.V, e.U
		}
	}
	out := &Result{VirtualRounds: totalRounds, Metrics: metrics, Memo: memo}
	for v, u := range mate {
		if u > v {
			id, ok := g.EdgeID(v, u)
			if !ok {
				return nil, fmt.Errorf("fastmatch: mate pair {%d,%d} is not an edge", v, u)
			}
			out.Edges = append(out.Edges, id)
			out.Weight += g.EdgeWeight(id)
		}
	}
	if !g.IsMatching(out.Edges) {
		return nil, fmt.Errorf("fastmatch: refinement produced a non-matching")
	}
	return out, nil
}

// telem accumulates engine metrics and memo counts over sub-runs.
type telem struct {
	Metrics simul.Metrics
	Memo    agg.MemoStats
}

// bucketedConstApprox is step 1+2 of MWM2Eps: the bucketed O(1)-approximate
// maximum weight matching of Lotker et al. It returns chosen edge IDs of g,
// the simulated round cost (max over big buckets of the sum over their
// small buckets), and the telemetry totals over every per-bucket sub-run
// (message/bit counts sum even though rounds are a max: the messages are
// all really sent, just in parallel).
func bucketedConstApprox(g *graph.Graph, eps float64, k int, cfg simul.Config, seed uint64) ([]int, int, telem, error) {
	const betaBucket = 8.0
	var tel telem
	if g.M() == 0 {
		return nil, 0, tel, nil
	}
	// big bucket index i: weight ∈ [β^i, β^{i+1}).
	big := make(map[int][]int)
	for id := 0; id < g.M(); id++ {
		i := int(math.Floor(math.Log(float64(g.EdgeWeight(id))) / math.Log(betaBucket)))
		big[i] = append(big[i], id)
	}
	smallOf := func(w int64, i int) int {
		rel := float64(w) / math.Pow(betaBucket, float64(i))
		return int(math.Floor(math.Log(rel) / math.Log(1+eps)))
	}
	chosenPerNode := make(map[int][]int) // node -> chosen edges (pre-cleanup)
	var allChosen []int
	maxRounds := 0
	bigKeys := make([]int, 0, len(big))
	for i := range big {
		bigKeys = append(bigKeys, i)
	}
	slices.Sort(bigKeys)
	for _, i := range bigKeys {
		ids := big[i]
		// Split into small buckets, processed highest first.
		smalls := make(map[int][]int)
		for _, id := range ids {
			s := smallOf(g.EdgeWeight(id), i)
			smalls[s] = append(smalls[s], id)
		}
		keys := make([]int, 0, len(smalls))
		for s := range smalls {
			keys = append(keys, s)
		}
		slices.SortFunc(keys, func(a, b int) int { return b - a }) // descending
		blocked := make(map[int]bool)                              // nodes matched within this big bucket
		bucketRounds := 0
		for ki, s := range keys {
			var free []int
			for _, id := range smalls[s] {
				e := g.EdgeByID(id)
				if !blocked[e.U] && !blocked[e.V] {
					free = append(free, id)
				}
			}
			if len(free) == 0 {
				bucketRounds++ // the emptiness check costs a round
				continue
			}
			sub, back := bucketSubgraph(g, free)
			subCfg := cfg
			subCfg.Seed = seed ^ (uint64(i)<<32 + uint64(ki)*104729)
			m, err := MCM2Eps(sub, eps, k, subCfg)
			if err != nil {
				return nil, 0, tel, err
			}
			bucketRounds += m.VirtualRounds
			tel.Metrics.Merge(m.Metrics)
			tel.Memo.Add(m.Memo)
			for _, subID := range m.Edges {
				id := back[subID]
				e := g.EdgeByID(id)
				blocked[e.U], blocked[e.V] = true, true
				allChosen = append(allChosen, id)
				chosenPerNode[e.U] = append(chosenPerNode[e.U], id)
				chosenPerNode[e.V] = append(chosenPerNode[e.V], id)
			}
		}
		if bucketRounds > maxRounds {
			maxRounds = bucketRounds
		}
	}
	// Cleanup: keep a chosen edge iff it is the heaviest chosen edge at both
	// endpoints (ties by edge ID).
	beats := func(a, b int) bool {
		wa, wb := g.EdgeWeight(a), g.EdgeWeight(b)
		return wa > wb || (wa == wb && a > b)
	}
	var kept []int
	for _, id := range allChosen {
		e := g.EdgeByID(id)
		best := true
		for _, other := range append(append([]int(nil), chosenPerNode[e.U]...), chosenPerNode[e.V]...) {
			if other != id && beats(other, id) {
				best = false
				break
			}
		}
		if best {
			kept = append(kept, id)
		}
	}
	// The winners-only set can still conflict pairwise at a shared endpoint
	// when each beats the other's alternatives; resolve greedily by weight.
	slices.SortFunc(kept, func(a, b int) int {
		if a == b {
			return 0
		}
		if beats(a, b) {
			return -1
		}
		return 1
	})
	used := make(map[int]bool)
	var final []int
	for _, id := range kept {
		e := g.EdgeByID(id)
		if used[e.U] || used[e.V] {
			continue
		}
		used[e.U], used[e.V] = true, true
		final = append(final, id)
	}
	return final, maxRounds + 1, tel, nil
}
