package agg

// Fold-reuse reference tests. RunDirect and RunLine answer a query from an
// earlier round's fold when they can prove the inputs unchanged (sender
// versions and live counts in RunDirect, the node's data epoch in RunLine).
// These tests pin that reuse to a reference evaluator that re-folds every
// query over every live neighbour in every round, driving both runtimes with
// a machine built to break a wrong proof: Data that returns to an earlier
// value, a neighbour halting in the round another one changes, query plans
// that alternate by round parity and sometimes outgrow the caches, and Proj
// closures private to each machine instance.

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/simul"
)

// reuseLog records, per virtual node, the results of every round the node
// resolved: log[id][t] is the result vector of Update(t).
type reuseLog [][][]int64

// flipMachine is the adversarial machine. Field 0 flips between two values
// (so A→B→A sequences occur), field 1 changes only now and then, field 2 is
// the node's ID. Every fourth node halts at round 3 while the next ID
// changes its Data in that round; from round 14 on nodes halt at random.
// Rounds 8–13 are quiet — no Data changes, no halts — so folds repeat.
type flipMachine struct {
	rounds int
	log    *[][]int64
	own    [2]Query // per-instance closures: same behaviour, distinct funcvals
}

func newFlipMachine(id, rounds int, log reuseLog) *flipMachine {
	m := &flipMachine{rounds: rounds, log: &log[id]}
	thr := int64(id % 5)
	m.own[0] = Query{Agg: Sum, Proj: func(d Data) int64 {
		if d[1] > thr {
			return 1
		}
		return 0
	}}
	m.own[1] = Query{Agg: Max, Proj: func(d Data) int64 { return d[0]*8 + thr }}
	return m
}

// flipMix is one Proj under two aggregates: the cache key is the pair.
func flipMix(d Data) int64 { return d[0] + 2*d[1] }

var (
	flipEven = []Query{
		{Agg: Max, Proj: func(d Data) int64 { return d[0] }},
		{Agg: Sum, Proj: func(d Data) int64 { return d[0] + d[1] }},
		{Agg: Min, Proj: func(d Data) int64 { return d[2] }},
		{Agg: Max, Proj: flipMix},
		{Agg: Min, Proj: flipMix},
	}
	flipOdd = []Query{
		{Agg: Or, Proj: func(d Data) int64 { return d[0] & 1 }},
		{Agg: And, Proj: func(d Data) int64 { return d[1] & 1 }},
		{Agg: BitOr, Proj: func(d Data) int64 { return 1 << (d[2] % 16) }},
	}
	// flipWide outgrows directCacheCap and memoPlanCap in one round.
	flipWide = func() []Query {
		qs := make([]Query, 12)
		for i := range qs {
			k := int64(i)
			qs[i] = Query{Agg: Sum, Proj: func(d Data) int64 { return d[0]*k + d[1] }}
		}
		return qs
	}()
)

func (m *flipMachine) Fields() int { return 3 }

func (m *flipMachine) Init(info *NodeInfo, d Data) {
	d[0] = int64(info.Rand.Intn(2))
	d[1] = int64(info.Rand.Intn(4))
	d[2] = int64(info.ID)
}

func (m *flipMachine) Queries(info *NodeInfo, t int, d Data, qs []Query) []Query {
	switch {
	case t%7 == 6:
		qs = append(qs, flipWide...)
	case t%2 == 0:
		qs = append(qs, flipEven...)
	default:
		qs = append(qs, flipOdd...)
	}
	return append(qs, m.own[:]...)
}

func (m *flipMachine) Update(info *NodeInfo, t int, d Data, results []int64) (bool, any) {
	*m.log = append(*m.log, append([]int64(nil), results...))
	if t == m.rounds-1 || (t == 3 && info.ID%4 == 0) {
		return true, t
	}
	if t >= 14 && info.Rand.Intn(6) == 0 {
		return true, -t
	}
	if 8 <= t && t < 14 {
		return false, nil
	}
	switch {
	case t == 3 && info.ID%4 == 1:
		d[0] ^= 1 // changes in the round node ID-1 halts
	case info.Rand.Intn(3) == 0:
		d[0] ^= 1 // A→B, and later B→A
	}
	if info.Rand.Intn(5) == 0 {
		d[1] = int64(info.Rand.Intn(4))
	}
	return false, nil
}

// referenceRun evaluates the machines on virtual graph h the plain way:
// each round, every live node folds every query over every live
// neighbour's Data, then all nodes update. It mirrors the runtimes'
// NodeInfo and randomness, so a correct runtime reproduces it exactly. It
// also reports whether some node saw one neighbour halt in the round
// another neighbour's Data changed.
func referenceRun(h *graph.Graph, seed uint64, build func(id int) Machine) (outputs []any, haltBesideChange bool) {
	n := h.N()
	ms := make([]Machine, n)
	infos := make([]NodeInfo, n)
	streams := make([]rng.Stream, n)
	data := make([]Data, n)
	live := make([]bool, n)
	master := rng.New(seed)
	for v := 0; v < n; v++ {
		ms[v] = build(v)
		streams[v] = master.SplitOff(uint64(v))
		infos[v] = NodeInfo{ID: v, N: n, Degree: h.Degree(v), Weight: h.NodeWeight(v), Rand: &streams[v]}
		data[v] = make(Data, ms[v].Fields())
		ms[v].Init(&infos[v], data[v])
		live[v] = true
	}
	outputs = make([]any, n)
	results := make([][]int64, n)
	prev := make([]Data, n)
	halted := make([]bool, n)
	for t := 0; ; t++ {
		alive := false
		for v := 0; v < n; v++ {
			if !live[v] {
				continue
			}
			alive = true
			var nbrs []Data
			for _, u := range h.Neighbors(v) {
				if live[u] {
					nbrs = append(nbrs, data[u])
				}
			}
			results[v] = results[v][:0]
			for _, q := range ms[v].Queries(&infos[v], t, data[v], nil) {
				results[v] = append(results[v], q.Eval(nbrs))
			}
		}
		if !alive {
			return outputs, haltBesideChange
		}
		for v := 0; v < n; v++ {
			halted[v] = false
			if !live[v] {
				continue
			}
			prev[v] = data[v].Clone()
			halt, out := ms[v].Update(&infos[v], t, data[v], results[v])
			if halt {
				outputs[v] = out
				halted[v] = true
			}
		}
		for v := 0; v < n; v++ {
			if !live[v] || halted[v] {
				continue
			}
			var sawHalt, sawChange bool
			for _, u := range h.Neighbors(v) {
				switch {
				case halted[u]:
					sawHalt = true
				case live[u] && !reflect.DeepEqual(prev[u], data[u]):
					sawChange = true
				}
			}
			haltBesideChange = haltBesideChange || (sawHalt && sawChange)
		}
		for v := 0; v < n; v++ {
			if halted[v] {
				live[v] = false
			}
		}
	}
}

func reuseGraphs() []*graph.Graph {
	var gs []*graph.Graph
	r := rng.New(21)
	for i := 0; i < 4; i++ {
		g := graph.GNP(24, 0.2, r.Split(uint64(i)))
		graph.AssignUniformEdgeWeights(g, 50, r.Split(uint64(10+i)))
		graph.AssignUniformNodeWeights(g, 50, r.Split(uint64(20+i)))
		gs = append(gs, g)
	}
	return append(gs, graph.Star(12), graph.Complete(7))
}

func TestFoldReuseMatchesReference(t *testing.T) {
	const rounds = 24
	covered := false
	for gi, g := range reuseGraphs() {
		for _, parallel := range []bool{false, true} {
			for _, rt := range []string{"direct", "line"} {
				name := fmt.Sprintf("g%d/%s/parallel=%v", gi, rt, parallel)
				h := g
				if rt == "line" {
					h = g.LineGraph()
				}
				if h.N() == 0 {
					continue
				}
				seed := uint64(100 + gi)
				ref := make(reuseLog, h.N())
				wantOut, both := referenceRun(h, seed, func(id int) Machine { return newFlipMachine(id, rounds, ref) })
				covered = covered || both
				got := make(reuseLog, h.N())
				build := func(id int) Machine { return newFlipMachine(id, rounds, got) }
				cfg := simul.Config{Seed: seed, Model: simul.LOCAL, Parallel: parallel}
				var res *Result
				var err error
				if rt == "line" {
					res, err = RunLine(g, cfg, build)
				} else {
					res, err = RunDirect(g, cfg, build)
				}
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				for id := range ref {
					if !reflect.DeepEqual(got[id], ref[id]) {
						t.Fatalf("%s: node %d results diverge from the reference:\n got %v\nwant %v", name, id, got[id], ref[id])
					}
				}
				if !reflect.DeepEqual(res.Outputs, wantOut) {
					t.Fatalf("%s: outputs %v, want %v", name, res.Outputs, wantOut)
				}
				if res.Memo.FoldReuse == 0 {
					t.Fatalf("%s: no fold was reused; the reference compares nothing new", name)
				}
			}
		}
	}
	if !covered {
		t.Fatal("no node ever saw a neighbour halt in the round another neighbour changed")
	}
}
