package service

import (
	"testing"
	"time"

	"repro/internal/obs"
)

// TestPercentilesNearestRank pins the quantile definition: nearest-rank with
// idx = ⌈q·n⌉ − 1 on the sorted window. In particular the high percentiles of
// a small window must reach the maximum sample — the previous
// int(q·(n−1)) truncation picked index 8 of 10 for p99 instead of index 9.
func TestPercentilesNearestRank(t *testing.T) {
	var c counters
	for i := 1; i <= 10; i++ {
		c.recordLatency(time.Duration(i) * time.Millisecond)
	}
	p50, p90, p99 := c.percentiles()
	// n=10: p50 → ⌈5⌉−1 = idx 4 → 5ms; p90 → ⌈9⌉−1 = idx 8 → 9ms;
	// p99 → ⌈9.9⌉−1 = idx 9 → 10ms (the maximum).
	if p50 != 5 || p90 != 9 || p99 != 10 {
		t.Fatalf("percentiles = (%v, %v, %v), want (5, 9, 10)", p50, p90, p99)
	}

	// Single sample: every percentile is that sample.
	var one counters
	one.recordLatency(7 * time.Millisecond)
	p50, p90, p99 = one.percentiles()
	if p50 != 7 || p90 != 7 || p99 != 7 {
		t.Fatalf("single-sample percentiles = (%v, %v, %v), want all 7", p50, p90, p99)
	}

	// Empty window: all zero.
	var empty counters
	if p50, p90, p99 := empty.percentiles(); p50 != 0 || p90 != 0 || p99 != 0 {
		t.Fatalf("empty-window percentiles = (%v, %v, %v), want zeros", p50, p90, p99)
	}
}

// TestPercentilesWindowWrap pins the ring-buffer behavior: once the window is
// full, old samples fall out.
func TestPercentilesWindowWrap(t *testing.T) {
	var c counters
	// Fill the whole window with 1ms, then wrap in 11 100ms samples: sorted,
	// the window holds 1013 ones then 11 hundreds, and nearest-rank p99 of
	// n=1024 is index ⌈0.99·1024⌉−1 = 1013 — the first hundred.
	for i := 0; i < latencyWindow; i++ {
		c.recordLatency(time.Millisecond)
	}
	for i := 0; i < 11; i++ {
		c.recordLatency(100 * time.Millisecond)
	}
	_, _, p99 := c.percentiles()
	if p99 != 100 {
		t.Fatalf("p99 = %v, want 100", p99)
	}
}

func TestRecordEngineAggregates(t *testing.T) {
	var c counters
	c.recordEngine(nil) // cached completions carry no trace; must be a no-op
	c.recordEngine(&obs.RoundTrace{Rounds: 3, Messages: 120, Bits: 960, MemoHits: 2, MemoMisses: 1, FoldReuse: 7})
	c.recordEngine(&obs.RoundTrace{Rounds: 5, Messages: 80, Bits: 640, MemoHits: 1, FoldReuse: 4})
	tele := c.engineTelemetry()
	if tele.Observed != 2 {
		t.Fatalf("observed = %d, want 2", tele.Observed)
	}
	if tele.RoundsTotal != 8 || tele.MessagesTotal != 200 || tele.BitsTotal != 1600 {
		t.Fatalf("totals = %+v", tele)
	}
	if tele.MemoHits != 3 || tele.MemoMisses != 1 || tele.FoldReuse != 11 {
		t.Fatalf("memo totals = %+v", tele)
	}
	if tele.Rounds.Count != 2 || tele.Messages.Count != 2 {
		t.Fatalf("histogram counts = %d/%d, want 2/2", tele.Rounds.Count, tele.Messages.Count)
	}
}
