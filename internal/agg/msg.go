package agg

import (
	"math"

	"repro/internal/simul"
)

// Pooled messages. The runtimes never allocate a message in steady state:
// every sender owns a small fixed set of message structs whose payloads view
// into the per-arc arenas, and Send passes pointers to them. The engine
// contract that makes this safe is delivery timing — a message written during
// round r's step phase is metered (Bits) in round r's deliver phase and read
// exactly once, in the receiver's Step of round r+1; the owner never rewrites
// it before round r+2 (the line runtime sends on alternate rounds; the direct
// and naive runtimes double-buffer by round parity).

// dataMsg carries a virtual node's published Data to a neighbor under
// RunDirect. fields is a snapshot copy (an arena view), because the live Data
// vector keeps mutating while receivers hold the message. version is the
// sender's Data version: it grows by one whenever the snapshot differs from
// the sender's previous broadcast (and on round 0), and never otherwise, so
// two messages from one sender with equal versions carry equal Data. It is
// simulator bookkeeping for the receivers' results caches (a real receiver
// could learn the same by comparing Data), so Bits does not meter it.
type dataMsg struct {
	fields  Data
	version uint64
}

func (m *dataMsg) Bits() int { return m.fields.Bits() }

// Message kinds of the line-graph runtimes.
const (
	msgPartial = iota // secondary → primary: per-query partial aggregates
	msgUpdate         // primary → secondary: new Data + halt flag
	msgRelay          // naive runtime: one edge's Data, tagged with its ID
)

// lineMsg is the pooled message of the line-graph runtimes. kind selects the
// wire format; vals is the payload — an arena view holding the Data snapshot
// (update/relay) or the partial-aggregate vector (partial).
type lineMsg struct {
	vals   []int64
	kind   uint8
	halted bool // msgUpdate only
	// changed (msgUpdate, RunLine only) tells the mirror whether vals
	// differs from the previous update. Like dataMsg.version it is
	// simulator bookkeeping, not metered.
	changed bool
	edgeID  int32 // msgRelay only
}

func (m *lineMsg) Bits() int {
	switch m.kind {
	case msgPartial:
		b := 0
		for _, v := range m.vals {
			b += partialValueBits(v)
		}
		return b
	case msgUpdate:
		return Data(m.vals).Bits() + 1
	default: // msgRelay
		return simul.BitsForRange(int64(m.edgeID)) + Data(m.vals).Bits()
	}
}

// partialValueBits sizes one partial-aggregate value. The Min/Max identities
// (±MaxInt64) arise only as "my side is empty" markers; a real wire encoding
// reserves a short empty-set symbol for them rather than 64 bits.
func partialValueBits(v int64) int {
	if v == math.MaxInt64 || v == math.MinInt64 {
		return 2
	}
	if v < 0 {
		v = -v
	}
	return 1 + simul.BitsForRange(v)
}
