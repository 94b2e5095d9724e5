package agg

import "unsafe"

// Exchange folding (the suffix-sum trick of [LPSR09]): a node simulating d
// edges evaluates each state's queries over the data of its d-1 other live
// states — O(d²·q) projection calls per round if done directly. But most
// query plans are shared: the paper's machines precompute them once (often at
// package level), so many states of one node ask the *same* (Agg, Proj)
// query over the same live-data list, each excluding only itself. For such a
// query the node builds prefix and suffix folds once —
//
//	pre[i] = f(liveData[0..i))    suf[i] = f(liveData[i..d))
//
// — and answers every state's "all except me" partial as
// φ(pre[i], suf[i+1]) in O(1), which is exact for any joining function φ
// (Definition 2.5 demands associativity and commutativity). Queries are
// identified by aggregate identity plus the Proj closure's funcval pointer:
// two func values behave identically if they are the same closure object,
// which precomputed plans guarantee.
//
// The memo is promotion-based so singleton queries (per-instance closures
// like Luby's, asked once per node) never pay the 2× build cost: the first
// sighting folds directly and records the key; only a second sighting builds
// the prefix/suffix entry. Entries and keys are capped, and everything is
// reused across rounds, so the memo allocates only while growing to steady
// state.
//
// # Reuse across rounds
//
// The promotion protocol restarts every virtual round (reset), and the
// hit/miss counters describe it: a hit is a lookup answered by an entry
// promoted this round, anything else is a miss. The entries themselves
// persist. Each is stamped with the node's data epoch at build time, a
// counter the line runtime bumps whenever the node's live-data list could
// have changed (a mirror copies different Data or dies, a primary's Update
// changes its Data or halts it). An entry whose stamp equals the current
// epoch was folded over exactly the current live-data list, so a promotion
// finding one skips the build, and a first sighting finding one answers in
// O(1) instead of folding. Both are counted as fold reuse. This leans on
// Proj purity across rounds: a Proj closure must give the same answer for
// the same Data in every round, not just within one.

const (
	memoPlanCap = 8  // max prefix/suffix entries per node
	memoSeenCap = 16 // max once-seen keys tracked per node per round
)

// projID returns the Proj closure's funcval pointer, the identity under
// which query plans are shared.
func projID(f func(Data) int64) uintptr {
	return uintptr(*(*unsafe.Pointer)(unsafe.Pointer(&f)))
}

// planKey identifies a query: the Proj closure pointer plus the aggregate.
// Scans compare the pointer first — it almost always decides — then the
// aggregate (see sameAgg), and the opcode is resolved only when an entry is
// built.
type planKey struct {
	agg  Aggregate
	proj uintptr
}

func (k planKey) matches(o planKey) bool {
	return k.proj == o.proj && sameAgg(k.agg, o.agg)
}

// sameAgg is a == b with an inline fast path: two interface values with
// identical words (type and data pointer) are equal, and the exported
// aggregates are singletons, so the runtime's interface comparison runs only
// for distinct boxes of one type — a caller-supplied Aggregate.
func sameAgg(a, b Aggregate) bool {
	type iface struct{ tab, data unsafe.Pointer }
	x, y := (*iface)(unsafe.Pointer(&a)), (*iface)(unsafe.Pointer(&b))
	if *x == *y {
		return true
	}
	return x.tab == y.tab && a == b
}

type partialPlan struct {
	key   planKey
	proj  func(Data) int64 // keeps the closure reachable (see foldResult)
	op    aggOp
	epoch uint64  // data epoch the folds were built at
	pre   []int64 // len(liveData)+1 each, reused across rounds
	suf   []int64
}

// foldMemo is one node's exchange-folding state. hits/misses/reuse are
// run-lifetime telemetry counters (a hit answers from an entry promoted this
// round in O(1); a miss is any other lookup; reuse counts misses answered by
// an entry built in an earlier round); they live here — in the per-node
// state that is already arena-allocated — so counting costs one increment
// and no allocation or sharing.
//
// plans[:nplan] are the entries promoted this round, in promotion order, so
// the hit path scans only those; plans[nplan:] are entries kept from earlier
// rounds, candidates for reuse or eviction.
type foldMemo struct {
	plans  []partialPlan // at most memoPlanCap entries, persistent
	nplan  int
	epoch  uint64 // the node's data epoch, bumped by invalidate
	seen   []planKey
	hits   uint64
	misses uint64
	reuse  uint64
}

// reset starts a new virtual round of the promotion protocol. Entries keep
// their folds; only those stamped with the current epoch are used again.
func (m *foldMemo) reset() {
	m.nplan = 0
	m.seen = m.seen[:0]
}

// invalidate records that the node's live-data list (membership or values)
// changed, which retires every entry built before.
func (m *foldMemo) invalidate() { m.epoch++ }

func opIdentity(op aggOp, agg Aggregate) int64 {
	switch op {
	case opSum, opOr, opBitOr:
		return 0
	case opMin:
		return Min.Identity()
	case opMax:
		return Max.Identity()
	case opAnd:
		return 1
	default:
		return agg.Identity()
	}
}

func opJoin(op aggOp, agg Aggregate, a, b int64) int64 {
	switch op {
	case opSum:
		return a + b
	case opMin:
		if a < b {
			return a
		}
		return b
	case opMax:
		if a > b {
			return a
		}
		return b
	case opAnd:
		if a != 0 && b != 0 {
			return 1
		}
		return 0
	case opOr:
		if a != 0 || b != 0 {
			return 1
		}
		return 0
	case opBitOr:
		return a | b
	default:
		return agg.Join(a, b)
	}
}

// build fills the prefix/suffix folds of q over data, projecting each
// element exactly twice with the join specialized outside the loops.
func (p *partialPlan) build(q *Query, data []Data) {
	n := len(data)
	if cap(p.pre) < n+1 {
		// One allocation for both folds; the live-data list only
		// shrinks during a run, so the first build sizes the entry.
		buf := make([]int64, 2*(n+1))
		p.pre, p.suf = buf[:n+1:n+1], buf[n+1:]
	}
	p.pre = p.pre[:n+1]
	p.suf = p.suf[:n+1]
	id := opIdentity(p.op, p.key.agg)
	p.pre[0] = id
	p.suf[n] = id
	switch p.op {
	case opSum:
		for j := 0; j < n; j++ {
			p.pre[j+1] = p.pre[j] + q.Proj(data[j])
		}
		for j := n - 1; j >= 0; j-- {
			p.suf[j] = q.Proj(data[j]) + p.suf[j+1]
		}
	case opMin:
		for j := 0; j < n; j++ {
			if v := q.Proj(data[j]); v < p.pre[j] {
				p.pre[j+1] = v
			} else {
				p.pre[j+1] = p.pre[j]
			}
		}
		for j := n - 1; j >= 0; j-- {
			if v := q.Proj(data[j]); v < p.suf[j+1] {
				p.suf[j] = v
			} else {
				p.suf[j] = p.suf[j+1]
			}
		}
	case opMax:
		for j := 0; j < n; j++ {
			if v := q.Proj(data[j]); v > p.pre[j] {
				p.pre[j+1] = v
			} else {
				p.pre[j+1] = p.pre[j]
			}
		}
		for j := n - 1; j >= 0; j-- {
			if v := q.Proj(data[j]); v > p.suf[j+1] {
				p.suf[j] = v
			} else {
				p.suf[j] = p.suf[j+1]
			}
		}
	case opBitOr:
		for j := 0; j < n; j++ {
			p.pre[j+1] = p.pre[j] | q.Proj(data[j])
		}
		for j := n - 1; j >= 0; j-- {
			p.suf[j] = q.Proj(data[j]) | p.suf[j+1]
		}
	default: // opAnd, opOr, opGeneric
		for j := 0; j < n; j++ {
			p.pre[j+1] = opJoin(p.op, p.key.agg, p.pre[j], q.Proj(data[j]))
		}
		for j := n - 1; j >= 0; j-- {
			p.suf[j] = opJoin(p.op, p.key.agg, q.Proj(data[j]), p.suf[j+1])
		}
	}
}

// partial returns q folded over data excluding index skip, memoizing
// prefix/suffix folds for queries seen more than once this round. Key scans
// compare the closure pointer before the aggregate: the pointer almost
// always decides, and comparing interfaces costs a runtime call.
func (m *foldMemo) partial(q *Query, data []Data, skip int) int64 {
	key := planKey{agg: q.Agg, proj: projID(q.Proj)}
	for k := 0; k < m.nplan; k++ {
		p := &m.plans[k]
		if p.key.matches(key) {
			m.hits++
			return opJoin(p.op, key.agg, p.pre[skip], p.suf[skip+1])
		}
	}
	m.misses++
	// An entry kept from an earlier round, and whether its folds still hold.
	kept, valid := -1, false
	for k := m.nplan; k < len(m.plans); k++ {
		if m.plans[k].key.matches(key) {
			kept, valid = k, m.plans[k].epoch == m.epoch
			break
		}
	}
	seenAt := -1
	for k := range m.seen {
		if m.seen[k].matches(key) {
			seenAt = k
			break
		}
	}
	switch {
	case seenAt < 0:
		if len(m.seen) < memoSeenCap {
			m.seen = append(m.seen, key)
		}
	case m.nplan < memoPlanCap:
		// Second sighting: promote to a prefix/suffix entry.
		m.seen[seenAt] = m.seen[len(m.seen)-1]
		m.seen = m.seen[:len(m.seen)-1]
		p := m.promote(kept)
		if valid {
			m.reuse++
		} else {
			p.key = key
			p.proj = q.Proj
			p.op = opOf(q.Agg)
			p.epoch = m.epoch
			p.build(q, data)
		}
		return opJoin(p.op, key.agg, p.pre[skip], p.suf[skip+1])
	}
	if valid {
		m.reuse++
		p := &m.plans[kept]
		return opJoin(p.op, key.agg, p.pre[skip], p.suf[skip+1])
	}
	return foldExcept(q, data, skip)
}

// promote moves an entry into the promoted prefix plans[:nplan] and returns
// it: entry kept if it is not -1, else a new entry while under the cap, else
// the kept entry to evict — preferably one stamped with an old epoch, whose
// folds are dead. promote runs only while nplan < memoPlanCap, so at the cap
// plans[nplan:] is not empty.
func (m *foldMemo) promote(kept int) *partialPlan {
	if kept < 0 && len(m.plans) < memoPlanCap {
		if m.plans == nil {
			m.plans = make([]partialPlan, 0, memoPlanCap)
		}
		m.plans = append(m.plans, partialPlan{})
		kept = len(m.plans) - 1
	}
	if kept < 0 {
		kept = m.nplan
		for k := m.nplan; k < len(m.plans); k++ {
			if m.plans[k].epoch != m.epoch {
				kept = k
				break
			}
		}
	}
	m.plans[m.nplan], m.plans[kept] = m.plans[kept], m.plans[m.nplan]
	m.nplan++
	return &m.plans[m.nplan-1]
}
