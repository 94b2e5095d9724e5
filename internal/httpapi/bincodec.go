package httpapi

import (
	"encoding/binary"
	"fmt"

	"repro/internal/obs"
	"repro/internal/registry"
)

// This file holds the wire content types and the compact binary result
// codec shared by the binary batch stream (stream.go, DESIGN.md §9): a
// settled cell's result travels with InSet as a bitset and Edges/Cost/Trace
// as varints, ~6× smaller than its JSON form. All varints are the
// encoding/binary Uvarint/Varint formats; signed fields (weights, Edges
// entries, which use -1 for unmatched) travel zigzagged via Varint.

// GraphEdgeListContentType negotiates streamed whitespace edge-list (SNAP
// dump) graph uploads on PUT /v1/graphs/{name}: the body is the file itself,
// decoded by graph.ReadEdgeList.
const GraphEdgeListContentType = "application/x-repro-edgelist"

// GraphMatrixMarketContentType negotiates streamed Matrix Market coordinate
// uploads on PUT /v1/graphs/{name}, decoded by graph.ReadMatrixMarket.
const GraphMatrixMarketContentType = "application/x-matrix-market"

// GraphBinaryContentType negotiates the graph.EncodeBinary format on
// PUT /v1/graphs/{name}.
const GraphBinaryContentType = "application/x-repro-graph"

// stateCodes maps service states to wire bytes and back. Order is the wire
// contract — append only.
var stateCodes = []string{"queued", "running", "done", "failed", "canceled"}

func stateCode(s string) (byte, error) {
	for i, name := range stateCodes {
		if name == s {
			return byte(i), nil
		}
	}
	return 0, fmt.Errorf("httpapi: unencodable state %q", s)
}

// appendString appends a uvarint length prefix and the bytes.
func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func appendResult(buf []byte, r *JobResult) []byte {
	buf = appendString(buf, r.Kind)
	buf = binary.AppendVarint(buf, int64(r.Size))
	buf = binary.AppendVarint(buf, r.Weight)
	buf = binary.AppendVarint(buf, int64(r.Uncovered))
	buf = binary.AppendUvarint(buf, uint64(len(r.InSet)))
	buf = appendBitset(buf, r.InSet)
	buf = binary.AppendUvarint(buf, uint64(len(r.Edges)))
	for _, e := range r.Edges {
		buf = binary.AppendVarint(buf, int64(e)) // -1 marks unmatched nodes
	}
	for _, c := range []int{r.Cost.Rounds, r.Cost.RealRounds, r.Cost.Messages,
		r.Cost.Bits, r.Cost.MaxMessageBits, r.Cost.BitBudget} {
		buf = binary.AppendVarint(buf, int64(c))
	}
	if t := r.Trace; t != nil {
		for _, f := range []int64{int64(t.Rounds), int64(t.VirtualRounds), t.Messages,
			t.Bits, t.PeakRoundMessages, t.PeakRoundBits, int64(t.PeakActive), t.CompactMoves} {
			buf = binary.AppendVarint(buf, f)
		}
		buf = binary.AppendUvarint(buf, t.MemoHits)
		buf = binary.AppendUvarint(buf, t.MemoMisses)
		buf = binary.AppendUvarint(buf, t.FoldReuse)
	}
	return buf
}

// appendBitset packs bools LSB-first, eight per byte.
func appendBitset(buf []byte, bits []bool) []byte {
	var cur byte
	for i, b := range bits {
		if b {
			cur |= 1 << (i % 8)
		}
		if i%8 == 7 {
			buf = append(buf, cur)
			cur = 0
		}
	}
	if len(bits)%8 != 0 {
		buf = append(buf, cur)
	}
	return buf
}

// wireReader walks a binary payload, latching the first error so the
// decode body reads linearly without per-field error plumbing.
type wireReader struct {
	data []byte
	off  int
	err  error
}

func (r *wireReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("httpapi: binary payload: "+format, args...)
	}
}

func (r *wireReader) uvarint(what string) uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 {
		r.fail("truncated %s at offset %d", what, r.off)
		return 0
	}
	r.off += n
	return v
}

func (r *wireReader) varint(what string) int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.data[r.off:])
	if n <= 0 {
		r.fail("truncated %s at offset %d", what, r.off)
		return 0
	}
	r.off += n
	return v
}

func (r *wireReader) count(what string) int {
	v := r.uvarint(what)
	// Every counted element occupies at least one byte, so a count beyond
	// the remaining input is malformed — reject before allocating for it.
	if r.err == nil && v > uint64(len(r.data)-r.off) {
		r.fail("%s %d exceeds remaining input", what, v)
		return 0
	}
	return int(v)
}

func (r *wireReader) str(what string) string {
	n := r.count(what + " length")
	if r.err != nil {
		return ""
	}
	s := string(r.data[r.off : r.off+n])
	r.off += n
	return s
}

func (r *wireReader) byte(what string) byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.data) {
		r.fail("truncated %s at offset %d", what, r.off)
		return 0
	}
	b := r.data[r.off]
	r.off++
	return b
}

func readResult(r *wireReader, hasTrace bool) *JobResult {
	res := &JobResult{
		Kind:      r.str("result kind"),
		Size:      int(r.varint("result size")),
		Weight:    r.varint("result weight"),
		Uncovered: int(r.varint("result uncovered")),
	}
	if n := r.uvarint("in_set length"); n > 0 && r.err == nil {
		res.InSet = readBitset(r, n)
	}
	if n := r.count("edges length"); n > 0 && r.err == nil {
		res.Edges = make([]int, n)
		for i := range res.Edges {
			res.Edges[i] = int(r.varint("edge entry"))
		}
	}
	res.Cost = registry.Cost{
		Rounds:         int(r.varint("cost rounds")),
		RealRounds:     int(r.varint("cost real rounds")),
		Messages:       int(r.varint("cost messages")),
		Bits:           int(r.varint("cost bits")),
		MaxMessageBits: int(r.varint("cost max message bits")),
		BitBudget:      int(r.varint("cost bit budget")),
	}
	if hasTrace {
		res.Trace = &obs.RoundTrace{
			Rounds:            int(r.varint("trace rounds")),
			VirtualRounds:     int(r.varint("trace virtual rounds")),
			Messages:          r.varint("trace messages"),
			Bits:              r.varint("trace bits"),
			PeakRoundMessages: r.varint("trace peak round messages"),
			PeakRoundBits:     r.varint("trace peak round bits"),
			PeakActive:        int(r.varint("trace peak active")),
			CompactMoves:      r.varint("trace compact moves"),
			MemoHits:          r.uvarint("trace memo hits"),
			MemoMisses:        r.uvarint("trace memo misses"),
			FoldReuse:         r.uvarint("trace fold reuse"),
		}
	}
	return res
}

// readBitset reads n bools packed LSB-first. A bitset packs eight entries
// per byte, so the generic count() one-byte-per-element bound does not
// apply; bound n against the remaining bytes × 8 before allocating.
func readBitset(r *wireReader, n uint64) []bool {
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.data)-r.off)*8 {
		r.fail("bitset of %d entries exceeds remaining input", n)
		return nil
	}
	need := (int(n) + 7) / 8
	bits := make([]bool, n)
	for i := range bits {
		bits[i] = r.data[r.off+i/8]&(1<<(i%8)) != 0
	}
	r.off += need
	return bits
}
