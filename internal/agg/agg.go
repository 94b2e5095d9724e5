// Package agg implements the paper's "local aggregation algorithm" framework
// (§2.4, Definitions 2.4–2.7) and the congestion-free line-graph simulation
// of Theorem 2.8.
//
// A local aggregation algorithm accesses its neighborhood's data only through
// order-invariant aggregate functions that admit a joining function φ with
// f(X) = φ(f(X₁), f(X₂)) for any disjoint partition X₁ ∪ X₂ of the inputs
// (Definition 2.5). Algorithms are expressed as Machines: per (virtual) node
// state machines that publish O(log n)-bit Data each round and consume the
// results of aggregate Queries over their live neighbors' Data.
//
// Three runtimes execute a Machine:
//
//   - RunDirect: on the graph itself — one real round per virtual round, one
//     message per edge per round (each node broadcasts its Data).
//   - RunLine: on the line graph L(G) — Theorem 2.8's simulation. Each edge
//     e = {u, v} of G is a virtual node simulated by its primary endpoint
//     min(u, v); the secondary endpoint max(u, v) mirrors e's Data. Because
//     every edge e' ∈ N_{L(G)}(e) shares an endpoint with e, each endpoint
//     can compute the partial aggregate over its own side, and the joining
//     function combines the halves — two real rounds and exactly one message
//     per edge per round, independent of ∆.
//   - RunLineNaive: the naive simulation the paper warns about, which relays
//     every incident edge's data individually and pays a Θ(∆) round factor;
//     kept as the ablation baseline (experiment E8).
//
// # Arena runtime
//
// All three runtimes are allocation-free in steady state, mirroring the round
// engine one layer up (DESIGN.md §2c). Per-virtual-node Data vectors, the
// message payloads, and the per-edge simulation states live in flat []int64 /
// struct arenas sized once from the graph's CSR layout and reused across
// rounds; messages are pooled concrete types whose payloads view into those
// arenas. The contract this imposes on Machines:
//
//   - Init fills a caller-provided Data vector of exactly Fields() elements
//     (an arena view) instead of allocating one.
//   - Queries appends to a caller-provided buffer and returns it. Because
//     Queries must be pure in (info, t, data) anyway, machines precompute
//     their query plans — including every Proj closure — once at construction
//     and append plan slices, so the per-round cost is a memcpy of Query
//     headers, never a closure allocation.
//   - Update may retain no slice it is handed: data and results are arena
//     views that the runtime reuses the next round.
//
// # Change-driven folding
//
// An aggregate is a function of the multiset of neighbour Data, so RunDirect
// and RunLine reuse a fold whose inputs are provably unchanged since an
// earlier round; messages are still sent and metered every round, and
// results, Cost and the memo's hit/miss counts are exactly those of folding
// every round. The invariants:
//
//   - RunDirect: a sender's version grows by one exactly when its broadcast
//     differs from its previous one (and on round 0). Live senders only drop
//     out and versions only grow, so a receiver whose (live sender count,
//     Σ versions) pair is unchanged sees the same senders with the same
//     Data, and answers every query it already folded under that pair from
//     its results cache.
//   - RunLine: a node's data epoch advances whenever its live-data list may
//     have changed — a mirror copies different Data or dies, a primary's
//     Update changes its Data or halts it. A prefix/suffix entry stamped with
//     the current epoch is still exact (memo.go).
//
// This makes Proj purity load-bearing across rounds, not only within one: a
// Proj must return the same value for the same Data in every round.
// MemoStats.FoldReuse counts the reused folds.
//
// Layer (DESIGN.md §2): agg sits directly above the internal/simul round
// engine and below the algorithm packages (core, mis, nmis, coloring) that
// express themselves as Machines.
//
// Concurrency and ownership: a runtime invocation (RunDirect/RunLine/
// RunLineNaive) is driven from one goroutine; any internal parallelism
// belongs to the simul engine underneath, whose sharding guarantees each
// Machine is stepped by exactly one worker per round. Machines are owned by
// their run — a Machine instance that keeps all per-node state in its Data
// arena view may be shared across virtual nodes, otherwise the build
// function must return a fresh instance per node. Result values are
// immutable once returned.
package agg

import (
	"fmt"
	"math"

	"repro/internal/rng"
	"repro/internal/simul"
)

// Data is the published per-node data D_{v,i} (Definition 2.7): a small tuple
// of integer fields. Implementations must keep it O(log n + log W) bits; the
// runtimes meter the actual encoded size against the CONGEST budget.
type Data []int64

// Clone returns a copy of d.
func (d Data) Clone() Data {
	c := make(Data, len(d))
	copy(c, d)
	return c
}

// Bits returns the number of bits needed to encode d: for each field a sign
// bit plus its magnitude.
func (d Data) Bits() int {
	b := 0
	for _, f := range d {
		mag := f
		if mag < 0 {
			mag = -mag
		}
		b += 1 + simul.BitsForRange(mag)
	}
	return b
}

// Aggregate is an order-invariant function with a joining function
// (Definitions 2.4–2.5). Join must be associative and commutative with
// Identity as neutral element, which makes any evaluation order — and any
// disjoint partition of the inputs — produce the same result.
type Aggregate interface {
	Name() string
	Identity() int64
	Join(a, b int64) int64
}

type sumAgg struct{}

func (sumAgg) Name() string          { return "sum" }
func (sumAgg) Identity() int64       { return 0 }
func (sumAgg) Join(a, b int64) int64 { return a + b }

type minAgg struct{}

func (minAgg) Name() string    { return "min" }
func (minAgg) Identity() int64 { return math.MaxInt64 }
func (minAgg) Join(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

type maxAgg struct{}

func (maxAgg) Name() string    { return "max" }
func (maxAgg) Identity() int64 { return math.MinInt64 }
func (maxAgg) Join(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

type andAgg struct{}

func (andAgg) Name() string    { return "and" }
func (andAgg) Identity() int64 { return 1 }
func (andAgg) Join(a, b int64) int64 {
	if a != 0 && b != 0 {
		return 1
	}
	return 0
}

type orAgg struct{}

func (orAgg) Name() string    { return "or" }
func (orAgg) Identity() int64 { return 0 }
func (orAgg) Join(a, b int64) int64 {
	if a != 0 || b != 0 {
		return 1
	}
	return 0
}

type bitOrAgg struct{}

func (bitOrAgg) Name() string          { return "bitor" }
func (bitOrAgg) Identity() int64       { return 0 }
func (bitOrAgg) Join(a, b int64) int64 { return a | b }

// The aggregate functions used by the paper's algorithms. "and"/"or" are the
// Boolean aggregates of Observation 2.6; Sum is the weight-update aggregate
// from the proof of Theorem 2.9; Min/Max implement priority comparisons.
var (
	Sum Aggregate = sumAgg{}
	Min Aggregate = minAgg{}
	Max Aggregate = maxAgg{}
	And Aggregate = andAgg{}
	Or  Aggregate = orAgg{}
	// BitOr unions small bitmasks (≤ 63 bits per chunk); used by the coloring
	// machines to learn which palette colors the neighborhood occupies.
	BitOr Aggregate = bitOrAgg{}
)

// Query asks for Agg over Proj(D_u) for every live neighbor u. Proj must be a
// pure function of the neighbor's Data (it is evaluated independently at both
// endpoints in the line-graph runtime, and its folds are reused in later
// rounds while the Data is unchanged). Construct Query values once, in a
// machine's precomputed query plan — allocating Proj closures per round is
// what the arena runtime exists to avoid.
type Query struct {
	Agg  Aggregate
	Proj func(Data) int64
}

// Eval evaluates q over the given neighbor data set.
func (q Query) Eval(neighbors []Data) int64 {
	acc := q.Agg.Identity()
	for _, d := range neighbors {
		acc = q.Agg.Join(acc, q.Proj(d))
	}
	return acc
}

// NodeInfo describes a virtual node to its Machine.
type NodeInfo struct {
	// ID is the virtual node's identifier: the node ID under RunDirect, the
	// edge ID under RunLine.
	ID int
	// N is the number of virtual nodes.
	N int
	// Degree is the virtual node's degree (deg_G(v), or deg_{L(G)}(e) =
	// deg(u)+deg(v)-2 under RunLine).
	Degree int
	// Weight is the virtual node's weight: w(v) under RunDirect, the edge
	// weight under RunLine (the node weight of L(G), §2.4).
	Weight int64
	// Rand is the virtual node's private randomness. Only Init and Update
	// may draw from it; Queries must be pure.
	Rand *rng.Stream
}

// Machine is a local aggregation algorithm for one virtual node.
//
// Protocol, in virtual rounds t = 0, 1, …:
//
//	Init(info, data₀)                             // fills the zeroed data₀
//	results_t = [q.Eval over live neighbors' data_t) for q in Queries(t, data_t)]
//	halt, output = Update(t, data_t, results_t)   // mutates data in place → data_{t+1}
//
// A machine that halts at Update(t) disappears from its neighbors'
// aggregations from round t+1 on; its final visible data is data_t. To
// announce a decision before leaving (the paper's addedToIS/removed
// messages), publish the decision in data at round t and halt at round t+1.
//
// Init fills the caller-provided data vector, which has exactly Fields()
// elements and is zeroed; the vector is an arena view owned by the runtime.
//
// Queries appends this round's queries to qs and returns the extended slice.
// It must depend only on (info, t, data) — never on private state or
// info.Rand — because the line-graph runtime re-evaluates it at the secondary
// endpoint. Machines precompute their query plans (see the package comment)
// and must append into qs rather than return internal slices, so the
// runtime's buffer is what grows to steady state.
//
// A machine that keeps all per-node state in the Data vector (every machine
// in this repository does) may be shared across virtual nodes: build may
// return the same instance for every node. Sharing makes the instance's
// precomputed query plans shared too, which lets the line runtime answer the
// "every live edge except me" partials of a whole real node from one
// prefix/suffix fold per query (the [LPSR09] exchange-folding trick; see
// memo.go) instead of one O(∆) fold per simulated edge. Shared machines must
// be safe for concurrent method calls — stateless machines are.
type Machine interface {
	Fields() int
	Init(info *NodeInfo, data Data)
	Queries(info *NodeInfo, t int, data Data, qs []Query) []Query
	Update(info *NodeInfo, t int, data Data, results []int64) (halt bool, output any)
}

// MemoStats totals a run's fold telemetry.
//
// Hits and Misses count the exchange-folding memo's lookups (RunLine only)
// and keep their per-round meaning: within one virtual round, a hit is a
// partial answered in O(1) from a prefix/suffix entry promoted that round, a
// miss is any other lookup. Whether a miss then had to fold does not change
// the count.
//
// FoldReuse counts folds answered from an earlier round's work because the
// inputs were provably unchanged: RunDirect queries served by a node's
// results cache, and RunLine misses answered by a prefix/suffix entry built
// in an earlier round. RunLineNaive reports zeros.
type MemoStats struct {
	Hits      uint64
	Misses    uint64
	FoldReuse uint64
}

// Add folds o into s.
func (s *MemoStats) Add(o MemoStats) {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.FoldReuse += o.FoldReuse
}

// Result is the outcome of running a Machine under one of the runtimes.
type Result struct {
	// Outputs[i] is virtual node i's Halt output.
	Outputs []any
	// VirtualRounds is the number of Machine rounds executed (the paper's
	// round complexity); Metrics.Rounds counts real network rounds.
	VirtualRounds int
	Metrics       simul.Metrics
	// Memo totals the fold telemetry: the exchange-folding memo's hit/miss
	// counts (RunLine only) and the folds reused across rounds.
	Memo MemoStats
}

// validateFields rejects machines whose Fields() cannot size an arena slot.
// (A machine can no longer publish a wrong-length Data vector: Init fills a
// runtime-owned view of exactly Fields() elements.)
func validateFields(id int, fields int) error {
	if fields < 0 {
		return fmt.Errorf("agg: virtual node %d declared %d data fields", id, fields)
	}
	return nil
}
