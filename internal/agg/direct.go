package agg

import (
	"fmt"
	"slices"

	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/simul"
)

// directNode adapts a Machine to a simul.Automaton running on the graph
// itself: each round the node broadcasts its Data and evaluates its queries
// over the Data received from live neighbors.
//
// The node owns no per-round allocations: data and the two broadcast
// snapshots are views into a run-wide arena, the broadcast messages are a
// double-buffered pair (the copy delivered for round r+1 is read while the
// copy for round r+2 is written), and the query/result buffers grow to a
// steady size during the first rounds and are reused thereafter.
//
// Change-driven folding: the node keeps the answers it folded in a small
// results cache (a fixed array inside the node, so the run's node slab holds
// every cache at no extra allocation) that stays valid for one neighbourhood
// epoch — the pair (live sender count, Σ sender versions) over its inbox.
// Live senders only ever drop out (a halted node stops broadcasting) and
// versions only grow, so an unchanged pair means the same senders with the
// same Data, and a query answered under that epoch — in any earlier round —
// is answered again from the cache without reading a neighbor's Data.
type directNode struct {
	m       Machine
	info    *NodeInfo
	data    Data
	msgs    [2]dataMsg // round-parity double buffer; fields are arena views
	version uint64     // version stamped on this node's latest broadcast
	qbuf    []Query
	rbuf    []int64
	nbuf    []Data // live neighbors' data for the round, for branch-free folds

	cache     [directCacheCap]foldResult // cache[:ncache]: this epoch's answers
	ncache    int
	epochLive int    // epoch of cache: live sender count (-1: none yet)
	epochSum  uint64 // epoch of cache: Σ sender versions
	reuse     uint64 // folds answered from an earlier round's cache
}

// directCacheCap bounds a node's results cache. An epoch can span a whole
// Algorithm 2 window, which asks up to eight distinct queries: three
// addition queries, the sync and apply plans, and up to three MIS queries
// (Ghaffari's). Queries beyond the cap are folded every round.
const directCacheCap = 8

// foldResult is one cached query answer. q keeps the Proj closure reachable,
// so its address — half of the cache key — cannot be recycled by another
// closure while the entry lives.
type foldResult struct {
	q   Query
	val int64
}

func (a *directNode) broadcast(ctx *simul.Context) {
	r := ctx.Round()
	m := &a.msgs[r&1]
	// The other buffer holds this node's previous broadcast (round r-1):
	// a node that has not halted broadcasts every round.
	if r == 0 || !slices.Equal(a.data, a.msgs[(r-1)&1].fields) {
		a.version++
	}
	copy(m.fields, a.data)
	m.version = a.version
	ctx.Broadcast(m)
}

// cached returns q's answer under the current epoch, if the cache holds it.
func (a *directNode) cached(q *Query) (int64, bool) {
	p := projID(q.Proj)
	for i := range a.cache[:a.ncache] {
		e := &a.cache[i]
		if projID(e.q.Proj) == p && sameAgg(e.q.Agg, q.Agg) {
			return e.val, true
		}
	}
	return 0, false
}

func (a *directNode) Step(ctx *simul.Context, inbox []simul.Envelope) {
	if ctx.Round() == 0 {
		a.broadcast(ctx)
		return
	}
	// The virtual round whose queries we are resolving.
	t := ctx.Round() - 1
	a.qbuf = a.m.Queries(a.info, t, a.data, a.qbuf[:0])
	var sum uint64
	for _, env := range inbox {
		sum += env.Msg.(*dataMsg).version
	}
	if len(inbox) != a.epochLive || sum != a.epochSum {
		a.ncache = 0
		a.epochLive, a.epochSum = len(inbox), sum
	}
	a.nbuf = a.nbuf[:0]
	a.rbuf = a.rbuf[:0]
	for qi := range a.qbuf {
		q := &a.qbuf[qi]
		if v, ok := a.cached(q); ok {
			a.reuse++
			a.rbuf = append(a.rbuf, v)
			continue
		}
		if len(a.nbuf) == 0 {
			// First miss this round: gather the neighbors' Data.
			for _, env := range inbox {
				a.nbuf = append(a.nbuf, env.Msg.(*dataMsg).fields)
			}
		}
		v := foldExcept(q, a.nbuf, -1)
		if a.ncache < directCacheCap {
			a.cache[a.ncache] = foldResult{q: *q, val: v}
			a.ncache++
		}
		a.rbuf = append(a.rbuf, v)
	}
	halt, output := a.m.Update(a.info, t, a.data, a.rbuf)
	if halt {
		ctx.Halt(output)
		return
	}
	a.broadcast(ctx)
}

// RunDirect executes the machines on the nodes of g. Virtual round t occupies
// real round t+1 (round 0 publishes the initial data), so one virtual round
// costs one real round and one message per edge per direction per round.
func RunDirect(g *graph.Graph, cfg simul.Config, build func(v int) Machine) (*Result, error) {
	n := g.N()
	nodes := make([]directNode, n)
	totalFields := 0
	for v := 0; v < n; v++ {
		nodes[v].m = build(v)
		f := nodes[v].m.Fields()
		if err := validateFields(v, f); err != nil {
			return nil, err
		}
		totalFields += f
	}
	// One arena carve per node: the live Data vector plus the two broadcast
	// snapshots, all adjacent for locality.
	arena := make([]int64, 3*totalFields)
	infos := make([]NodeInfo, n)
	streams := make([]rng.Stream, n)
	master := rng.New(cfg.Seed)
	off := 0
	for v := 0; v < n; v++ {
		nd := &nodes[v]
		f := nd.m.Fields()
		streams[v] = master.SplitOff(uint64(v))
		infos[v] = NodeInfo{
			ID:     v,
			N:      n,
			Degree: g.Degree(v),
			Weight: g.NodeWeight(v),
			Rand:   &streams[v],
		}
		nd.info = &infos[v]
		nd.epochLive = -1
		nd.data = arena[off : off+f : off+f]
		nd.msgs[0].fields = arena[off+f : off+2*f : off+2*f]
		nd.msgs[1].fields = arena[off+2*f : off+3*f : off+3*f]
		off += 3 * f
		nd.m.Init(nd.info, nd.data)
	}
	res, err := simul.Run(g, cfg, func(v int) simul.Automaton { return &nodes[v] })
	if err != nil {
		return nil, err
	}
	out := &Result{
		Outputs:       res.Outputs,
		VirtualRounds: max(0, res.Metrics.Rounds-1),
		Metrics:       res.Metrics,
	}
	for v := range nodes {
		out.Memo.FoldReuse += nodes[v].reuse
	}
	return out, nil
}

// checkQueryCount guards against machines that change their query count
// between the two endpoints' evaluations; both line runtimes call it.
func checkQueryCount(id int, got, want int) error {
	if got != want {
		return fmt.Errorf("agg: virtual node %d query count changed between endpoints: %d vs %d (Queries must be pure)", id, got, want)
	}
	return nil
}
