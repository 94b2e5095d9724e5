package service

import (
	"math"
	"slices"
	"time"

	"repro/internal/obs"
	"repro/internal/registry"
)

// latencyWindow bounds how many recent job durations feed the percentile
// estimates.
const latencyWindow = 1024

// Metrics is a point-in-time snapshot of the service's counters. Submitted,
// Completed, Failed and Canceled count every job; cache traffic is split by
// origin: CacheHits/CacheMisses cover single-job submissions only, while
// batch-expanded members are metered in BatchCacheHits/BatchCacheMisses (and
// counted in BatchMembers), so a cached batch cell is distinguishable from a
// single-job miss.
type Metrics struct {
	Submitted         uint64  `json:"submitted"`
	Completed         uint64  `json:"completed"`
	Failed            uint64  `json:"failed"`
	Canceled          uint64  `json:"canceled"`
	CacheHits         uint64  `json:"cache_hits"`
	CacheMisses       uint64  `json:"cache_misses"`
	CacheHitRate      float64 `json:"cache_hit_rate"`
	BatchMembers      uint64  `json:"batch_members"`
	BatchCacheHits    uint64  `json:"batch_cache_hits"`
	BatchCacheMisses  uint64  `json:"batch_cache_misses"`
	BatchCacheHitRate float64 `json:"batch_cache_hit_rate"`
	CacheSize         int     `json:"cache_size"`
	Queued            int     `json:"queued"`
	Running           int     `json:"running"`
	Workers           int     `json:"workers"`
	// Latency percentiles over the last latencyWindow completed jobs, in
	// milliseconds. Zero when nothing has completed yet.
	LatencyP50Ms float64 `json:"latency_p50_ms"`
	LatencyP90Ms float64 `json:"latency_p90_ms"`
	LatencyP99Ms float64 `json:"latency_p99_ms"`
	// Tenants breaks the counters down per named tenant (multi-tenant mode
	// only; absent in open mode so the JSON stays byte-stable for existing
	// clients). The anonymous "" tenant is never tracked here.
	Tenants map[string]TenantMetrics `json:"tenants,omitempty"`
}

// TenantMetrics is one tenant's slice of the service counters: cumulative
// job totals plus the live fair-queue occupancy.
type TenantMetrics struct {
	Submitted uint64 `json:"submitted"`
	Completed uint64 `json:"completed"`
	Failed    uint64 `json:"failed"`
	Canceled  uint64 `json:"canceled"`
	// Rejected counts submissions refused by the tenant's queue bound
	// (per-tenant backpressure, surfaced as 503 queue_full).
	Rejected uint64 `json:"rejected"`
	Queued   int    `json:"queued"`
	Running  int    `json:"running"`
}

// tenantCounters is the mutable per-tenant state behind TenantMetrics;
// the Service guards it with its mutex.
type tenantCounters struct {
	submitted, completed, failed, canceled, rejected uint64
}

// counters is the mutable metrics state; the Service guards it with its
// mutex.
type counters struct {
	submitted, completed, failed, canceled         uint64
	cacheHits, cacheMisses                         uint64
	batchMembers, batchCacheHits, batchCacheMisses uint64
	latencies                                      []time.Duration // ring buffer
	latNext                                        int
	latFull                                        bool
	// Engine-telemetry aggregates over live (non-cached) completions, fed
	// from each result's RoundTrace. They back the Prometheus exposition
	// only and are deliberately kept out of the JSON Metrics struct, which
	// stays byte-stable for existing clients.
	engineRounds   *obs.Histogram
	engineMessages *obs.Histogram
	engineObserved uint64
	engineRoundsT  uint64 // Σ rounds
	engineMsgsT    uint64 // Σ messages
	engineBitsT    uint64 // Σ payload bits
	memoHits       uint64
	memoMisses     uint64
	foldReuse      uint64
}

// recordEngine folds one live run's trace into the engine aggregates.
func (c *counters) recordEngine(t *obs.RoundTrace) {
	if t == nil {
		return
	}
	if c.engineRounds == nil {
		c.engineRounds = obs.NewHistogram(1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096)
		c.engineMessages = obs.NewHistogram(10, 100, 1e3, 1e4, 1e5, 1e6, 1e7)
	}
	c.engineRounds.Observe(float64(t.Rounds))
	c.engineMessages.Observe(float64(t.Messages))
	c.engineObserved++
	c.engineRoundsT += uint64(t.Rounds)
	c.engineMsgsT += uint64(t.Messages)
	c.engineBitsT += uint64(t.Bits)
	c.memoHits += t.MemoHits
	c.memoMisses += t.MemoMisses
	c.foldReuse += t.FoldReuse
}

// EngineTelemetry is a snapshot of the engine-telemetry aggregates, consumed
// by the Prometheus exposition.
type EngineTelemetry struct {
	// Rounds and Messages are per-run distribution snapshots (zero-valued
	// until the first live completion).
	Rounds   obs.HistSnapshot
	Messages obs.HistSnapshot
	// Observed counts the live completions folded in; the totals sum their
	// traces.
	Observed      uint64
	RoundsTotal   uint64
	MessagesTotal uint64
	BitsTotal     uint64
	MemoHits      uint64
	MemoMisses    uint64
	FoldReuse     uint64
}

func (c *counters) engineTelemetry() EngineTelemetry {
	t := EngineTelemetry{
		Observed:      c.engineObserved,
		RoundsTotal:   c.engineRoundsT,
		MessagesTotal: c.engineMsgsT,
		BitsTotal:     c.engineBitsT,
		MemoHits:      c.memoHits,
		MemoMisses:    c.memoMisses,
		FoldReuse:     c.foldReuse,
	}
	if c.engineRounds != nil {
		t.Rounds = c.engineRounds.Snapshot()
		t.Messages = c.engineMessages.Snapshot()
	}
	return t
}

// traceOf extracts the trace a result carries, nil-safe on both levels.
func traceOf(res *registry.Result) *obs.RoundTrace {
	if res == nil {
		return nil
	}
	return res.Trace
}

func (c *counters) recordLatency(d time.Duration) {
	if c.latencies == nil {
		c.latencies = make([]time.Duration, latencyWindow)
	}
	c.latencies[c.latNext] = d
	c.latNext++
	if c.latNext == len(c.latencies) {
		c.latNext = 0
		c.latFull = true
	}
}

// percentiles returns (p50, p90, p99) in milliseconds over the window.
func (c *counters) percentiles() (p50, p90, p99 float64) {
	n := c.latNext
	if c.latFull {
		n = len(c.latencies)
	}
	if n == 0 {
		return 0, 0, 0
	}
	xs := make([]time.Duration, n)
	copy(xs, c.latencies[:n])
	slices.Sort(xs)
	at := func(q float64) float64 {
		// Nearest-rank: the q-th percentile is the smallest sample with at
		// least ⌈q·n⌉ samples ≤ it. The previous int(q·(n-1)) truncation
		// floor-biased the high percentiles on small windows (p99 of 10
		// samples picked index 8, not the maximum).
		idx := int(math.Ceil(q*float64(n))) - 1
		if idx < 0 {
			idx = 0
		}
		if idx >= n {
			idx = n - 1
		}
		return float64(xs[idx]) / float64(time.Millisecond)
	}
	return at(0.50), at(0.90), at(0.99)
}
