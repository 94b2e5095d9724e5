// Package cluster is the multi-node coordinator that turns a fleet of
// single-node reprod workers into one scale-out batch engine. The
// coordinator keeps the authoritative copy of every named graph in a local
// internal/store, consistent-hashes graphs onto workers by their
// registry.Fingerprint (one owner per graph, uploaded once per worker per
// name, in the compact binary codec), expands BatchSpecs with the same code
// path as the single-node engine (service.BatchSpec.Expand), packs cells
// that differ only in seed into dispatch units of up to Config.GroupSize,
// and sends each unit to the owning worker as a batch of explicit cells over
// internal/httpapi.Client, with a bounded in-flight window per worker. It
// reads each unit's results back on the worker's binary result stream and
// settles every cell as its frame arrives; on worker failure it re-places
// only the cells still open onto the next healthy worker along the ring,
// optionally hedges straggling units onto a second worker (first result per
// cell wins, Config.Hedge), and merges per-cell results and per-group
// aggregates (service.GroupCells) into a single batch view that is
// indistinguishable from a single-node run.
//
// Layer (DESIGN.md §2, §6): cluster sits above internal/httpapi (it is a
// client of the worker wire format), internal/service (spec expansion, view
// types) and internal/store; it is served by httpapi.NewClusterHandler and
// mounted by cmd/reprod -workers.
//
// Concurrency and ownership: a Coordinator is safe for concurrent use. Each
// batch runs one goroutine per dispatch unit (two while a hedge races),
// gated by the target worker's window semaphore; all cell state is guarded
// by the batch mutex and all worker state by the worker mutex (lock
// ordering: batch.mu and worker.mu are leaves — never held together, and
// never held across an HTTP round trip). Graphs handed out by the local
// store are shared and strictly read-only, exactly as in the single-node
// engine.
package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"log/slog"
	"net/http"
	"net/url"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/httpapi"
	"repro/internal/store"
)

// ErrNoWorkers is returned by New when the config names no workers.
var ErrNoWorkers = errors.New("cluster: no workers configured")

// Config sizes the coordinator. Zero values select defaults.
type Config struct {
	// Workers lists the base URLs of the reprod workers (required).
	Workers []string
	// Window bounds in-flight dispatch units per worker (default 4).
	Window int
	// RequestTimeout bounds every worker round trip and is the idle limit of
	// a result stream: a stream that carries no byte, keepalives included,
	// for this long counts as a stalled worker. Workers send a keepalive
	// every httpapi.StreamKeepalive (1s), and the idle limit never drops
	// below three of them, so a long run is never mistaken for a stall
	// (default 15s).
	RequestTimeout time.Duration
	// ProbeInterval enables background /healthz probing that revives downed
	// workers (0 = probe only via explicit Probe calls).
	ProbeInterval time.Duration
	// MaxGraphs bounds the coordinator's local graph store (store default).
	MaxGraphs int
	// WALDir, when non-empty, makes the coordinator's graph store durable:
	// registrations are journaled and recovered on restart (batch state is
	// not — the coordinator holds no results of its own; clients resubmit
	// and the workers' caches and their own WALs make that cheap).
	WALDir string
	// SpillDir backs the durable store's graph bytes (defaults to
	// <WALDir>/spill).
	SpillDir string
	// SnapshotEvery compacts the store WAL after this many records.
	SnapshotEvery int
	// MaxCells bounds how many cells one batch may expand into (default 4096).
	MaxCells int
	// MaxBatches bounds retained finished batches (default 256).
	MaxBatches int
	// Replicas is the number of virtual ring points per worker (default 64).
	Replicas int
	// WorkerAPIKey is sent with every worker request when the fleet runs
	// with API keys (-keys on the workers); empty sends none.
	WorkerAPIKey string
	// Logger receives the coordinator's structured span events (dispatch,
	// retry, re-placement, worker down/revived, straggler, hedge), each
	// tagged with the batch and cell trace IDs. Nil discards them.
	Logger *slog.Logger
	// StragglerAfter, when positive, marks a dispatched unit a straggler
	// once it runs this long: a straggler span event is logged, and with
	// Hedge set it is also the hedge trigger. Zero falls back to an adaptive
	// threshold (3× the observed p99 unit duration) once enough units have
	// completed.
	StragglerAfter time.Duration
	// Hedge enables speculative re-dispatch: a unit past the straggler
	// threshold sends its open cells to the next healthy worker too, each
	// cell keeps the first result that arrives, and the losing attempt is
	// canceled (DESIGN.md §6a).
	Hedge bool
	// GroupSize caps how many same-(graph, algo, params) cells ride in one
	// dispatch unit (default 16; 1 dispatches every cell on its own).
	GroupSize int
}

func (c Config) withDefaults() Config {
	if c.Window <= 0 {
		c.Window = 4
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 15 * time.Second
	}
	if c.MaxCells <= 0 {
		c.MaxCells = 4096
	}
	if c.MaxBatches <= 0 {
		c.MaxBatches = 256
	}
	if c.Replicas <= 0 {
		c.Replicas = 64
	}
	if c.GroupSize <= 0 {
		c.GroupSize = 16
	}
	return c
}

// worker is the coordinator's view of one reprod instance.
type worker struct {
	id     int
	url    string
	client *httpapi.Client
	// slots is the in-flight window: a unit holds one slot for the whole of
	// its dispatch to this worker.
	slots chan struct{}

	mu      sync.Mutex
	healthy bool
	// uploaded maps graph name → fingerprint this coordinator has PUT on the
	// worker, so each graph uploads once per worker; cleared when the worker
	// revives (a restarted worker has an empty store).
	uploaded map[string]string
	// uploading singleflights in-progress uploads per name: concurrent
	// units sharing a graph wait on the channel instead of re-shipping the
	// same bytes.
	uploading map[string]chan struct{}
	inFlight  int
	// queueDepth counts dispatch attempts waiting for a window slot on this
	// worker — the backlog behind the in-flight window, exposed as a
	// Prometheus gauge so hedging behavior is observable.
	queueDepth int
	dispatched uint64
	failures   uint64
	// lastErr is the most recent failure observed against this worker,
	// surfaced in the /v1/cluster view.
	lastErr string
}

func (w *worker) isHealthy() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.healthy
}

// ringPoint is one virtual node on the consistent-hash circle.
type ringPoint struct {
	hash uint64
	w    *worker
}

// Coordinator fronts the worker fleet. Create with New, release with Close.
type Coordinator struct {
	cfg     Config
	log     *slog.Logger
	st      *store.Store
	tr      *http.Transport
	workers []*worker
	ring    []ringPoint // sorted by hash

	mu       sync.Mutex
	batches  map[string]*cbatch
	terminal []string // finished batch IDs, oldest first, for eviction
	nextID   uint64
	draining bool // set by Drain: SubmitBatch refuses with ErrDraining

	runWG     sync.WaitGroup // live batch runners, drained by Close
	probeStop chan struct{}
	probeDone chan struct{}

	batchesSubmitted atomic.Uint64
	batchesDone      atomic.Uint64
	batchesCanceled  atomic.Uint64
	batchCells       atomic.Uint64
	cellsDispatched  atomic.Uint64
	cellRetries      atomic.Uint64
	workerFailures   atomic.Uint64
	groupsDispatched atomic.Uint64
	hedgesFired      atomic.Uint64
	hedgesWon        atomic.Uint64
	hedgesWasted     atomic.Uint64
	wireBytes        atomic.Uint64

	// durMu guards the ring of recent winning-attempt durations backing the
	// adaptive straggler threshold.
	durMu   sync.Mutex
	durs    [64]time.Duration
	durN    int
	durNext int
}

// recordGroupDur folds one winning unit-attempt duration into the
// adaptive-threshold ring.
func (c *Coordinator) recordGroupDur(d time.Duration) {
	c.durMu.Lock()
	c.durs[c.durNext] = d
	c.durNext = (c.durNext + 1) % len(c.durs)
	if c.durN < len(c.durs) {
		c.durN++
	}
	c.durMu.Unlock()
}

// minHedgeSamples gates the adaptive threshold: below it there is no
// credible p99 and hedging stays off (unless StragglerAfter pins the
// threshold explicitly).
const minHedgeSamples = 20

// stragglerThreshold returns how long a dispatched unit may run before it
// counts as a straggler (and, with Hedge on, gets hedged). Zero disables:
// StragglerAfter is authoritative when set, otherwise 3× the observed p99
// once minHedgeSamples unit attempts have won.
func (c *Coordinator) stragglerThreshold() time.Duration {
	if c.cfg.StragglerAfter > 0 {
		return c.cfg.StragglerAfter
	}
	c.durMu.Lock()
	defer c.durMu.Unlock()
	if c.durN < minHedgeSamples {
		return 0
	}
	snap := make([]time.Duration, c.durN)
	copy(snap, c.durs[:c.durN])
	slices.Sort(snap)
	// Nearest-rank p99, same convention as the service latency percentiles.
	idx := (99*len(snap) + 99) / 100
	if idx > len(snap) {
		idx = len(snap)
	}
	return 3 * snap[idx-1]
}

// New builds a coordinator over the configured workers. Workers start out
// healthy; failures observed during dispatch (or probing) mark them down.
func New(cfg Config) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Workers) == 0 {
		return nil, ErrNoWorkers
	}
	// No client-wide timeout: result streams legitimately outlive any fixed
	// bound. Round trips carry RequestTimeout contexts; streams an idle
	// watchdog. Two idle connections per window slot keep a unit's submit
	// and stream on warm connections.
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = 2 * cfg.Window
	hc := &http.Client{Transport: tr}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	st, err := store.Open(store.Config{
		MaxGraphs:     cfg.MaxGraphs,
		WALDir:        cfg.WALDir,
		SpillDir:      cfg.SpillDir,
		SnapshotEvery: cfg.SnapshotEvery,
		Logger:        logger,
	})
	if err != nil {
		return nil, fmt.Errorf("cluster: graph store: %w", err)
	}
	c := &Coordinator{
		cfg:     cfg,
		log:     logger,
		st:      st,
		tr:      tr,
		batches: make(map[string]*cbatch),
	}
	seen := make(map[string]bool)
	for i, raw := range cfg.Workers {
		u := strings.TrimRight(strings.TrimSpace(raw), "/")
		// Fail fast on anything that is not an absolute http(s) base URL —
		// notably bare host:port, and leftovers of the pre-cluster -workers
		// flag (which used to be the executor-goroutine count).
		parsed, err := url.Parse(u)
		if err != nil || (parsed.Scheme != "http" && parsed.Scheme != "https") || parsed.Host == "" {
			return nil, fmt.Errorf("cluster: worker %q is not an absolute http(s) base URL", raw)
		}
		if seen[u] {
			return nil, fmt.Errorf("cluster: duplicate worker URL %q", u)
		}
		seen[u] = true
		w := &worker{
			id:        i,
			url:       u,
			client:    httpapi.NewClient(u, hc).WithAPIKey(cfg.WorkerAPIKey),
			slots:     make(chan struct{}, cfg.Window),
			healthy:   true,
			uploaded:  make(map[string]string),
			uploading: make(map[string]chan struct{}),
		}
		c.workers = append(c.workers, w)
		for r := 0; r < cfg.Replicas; r++ {
			c.ring = append(c.ring, ringPoint{hash: hash64(fmt.Sprintf("%s#%d", u, r)), w: w})
		}
	}
	sort.Slice(c.ring, func(i, j int) bool { return c.ring[i].hash < c.ring[j].hash })
	if cfg.ProbeInterval > 0 {
		c.probeStop = make(chan struct{})
		c.probeDone = make(chan struct{})
		go c.probeLoop()
	}
	return c, nil
}

func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// owner returns the healthy worker owning fp on the ring: the first healthy
// worker clockwise from the fingerprint's hash, nil when every worker is
// down. Distinct virtual points of one worker are skipped so a downed owner
// re-places onto the next distinct worker.
func (c *Coordinator) owner(fp string) *worker {
	h := hash64(fp)
	start := sort.Search(len(c.ring), func(i int) bool { return c.ring[i].hash >= h })
	tried := make(map[int]bool, len(c.workers))
	for i := 0; i < len(c.ring); i++ {
		pt := c.ring[(start+i)%len(c.ring)]
		if tried[pt.w.id] {
			continue
		}
		tried[pt.w.id] = true
		if pt.w.isHealthy() {
			return pt.w
		}
		if len(tried) == len(c.workers) {
			break
		}
	}
	return nil
}

// hedgeTarget returns the first healthy worker clockwise from fp's ring
// position that is not avoid — where a hedged unit's open cells go. Nil
// when no distinct healthy worker exists (hedging then stays a no-op).
func (c *Coordinator) hedgeTarget(fp string, avoid *worker) *worker {
	h := hash64(fp)
	start := sort.Search(len(c.ring), func(i int) bool { return c.ring[i].hash >= h })
	tried := make(map[int]bool, len(c.workers))
	for i := 0; i < len(c.ring) && len(tried) < len(c.workers); i++ {
		pt := c.ring[(start+i)%len(c.ring)]
		if tried[pt.w.id] {
			continue
		}
		tried[pt.w.id] = true
		if pt.w != avoid && pt.w.isHealthy() {
			return pt.w
		}
	}
	return nil
}

// markDown records an observed worker failure — keeping the error for the
// /v1/cluster view — and takes the worker off the ring until a probe
// revives it.
func (c *Coordinator) markDown(w *worker, err error) {
	c.workerFailures.Add(1)
	w.mu.Lock()
	w.failures++
	w.healthy = false
	w.lastErr = err.Error()
	w.mu.Unlock()
	c.log.Warn("worker down", "event", "worker_down", "worker", w.url, "error", err.Error())
}

// Probe checks /healthz on every worker concurrently (one hung worker must
// not stall the sweep for its whole request timeout), reviving reachable
// downed workers (their upload bookkeeping resets: a restarted worker has an
// empty store) and downing unreachable ones. It returns the number of
// healthy workers.
func (c *Coordinator) Probe() int {
	errs := make([]error, len(c.workers))
	var wg sync.WaitGroup
	wg.Add(len(c.workers))
	for i, w := range c.workers {
		go func(i int, w *worker) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), c.cfg.RequestTimeout)
			defer cancel()
			errs[i] = w.client.Health(ctx)
		}(i, w)
	}
	wg.Wait()
	healthy := 0
	for i, w := range c.workers {
		w.mu.Lock()
		revived, downed := false, false
		switch {
		case errs[i] == nil && !w.healthy:
			w.healthy = true
			w.uploaded = make(map[string]string)
			revived = true
		case errs[i] != nil && w.healthy:
			w.healthy = false
			w.failures++
			w.lastErr = errs[i].Error()
			downed = true
		}
		if w.healthy {
			healthy++
		}
		w.mu.Unlock()
		if revived {
			c.log.Info("worker revived", "event", "worker_revived", "worker", w.url)
		}
		if downed {
			c.log.Warn("worker down", "event", "worker_down", "worker", w.url, "error", errs[i].Error())
		}
	}
	return healthy
}

func (c *Coordinator) probeLoop() {
	defer close(c.probeDone)
	t := time.NewTicker(c.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-c.probeStop:
			return
		case <-t.C:
			c.Probe()
		}
	}
}

// Drain stops admission (SubmitBatch returns service.ErrDraining) and waits
// up to timeout for in-flight batches to finish on their workers. It returns
// true when every batch reached a terminal state in time; on false the
// caller should fall through to Close, which cancels the stragglers. Unlike
// Close it never cancels work: cells already dispatched keep running, so a
// SIGTERM during a sweep loses no finished results.
func (c *Coordinator) Drain(timeout time.Duration) bool {
	c.mu.Lock()
	c.draining = true
	c.mu.Unlock()
	done := make(chan struct{})
	go func() {
		c.runWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		return true
	case <-time.After(timeout):
		return false
	}
}

// Close cancels every running batch, waits for their dispatch goroutines to
// drain, and stops the prober. The coordinator must not be used afterwards.
func (c *Coordinator) Close() {
	c.mu.Lock()
	ids := make([]string, 0, len(c.batches))
	for id := range c.batches {
		ids = append(ids, id)
	}
	c.mu.Unlock()
	for _, id := range ids {
		_, _ = c.CancelBatch(id)
	}
	c.runWG.Wait()
	if c.probeStop != nil {
		close(c.probeStop)
		<-c.probeDone
	}
	c.tr.CloseIdleConnections()
	if err := c.st.Close(); err != nil {
		c.log.Warn("store_close_failed", "err", err)
	}
}

// PutGraph registers a graph in the coordinator's local store; placement is
// by fingerprint on the ring and the upload to the owner happens lazily on
// first dispatch, so a PUT never blocks on a worker round trip.
func (c *Coordinator) PutGraph(name string, src store.Source) (store.Info, bool, error) {
	return c.st.Put(name, src)
}

// GetGraph returns the local metadata of a stored graph.
func (c *Coordinator) GetGraph(name string) (store.Info, bool) {
	return c.st.Get(name)
}

// ListGraphs lists the coordinator's stored graphs.
func (c *Coordinator) ListGraphs() []store.Info {
	return c.st.List()
}

// DeleteGraph removes a graph locally (refusing while a batch pins it) and
// best-effort deletes the name from every worker it was uploaded to, so
// worker stores do not accumulate dead names.
func (c *Coordinator) DeleteGraph(name string) error {
	if err := c.st.Delete(name); err != nil {
		return err
	}
	for _, w := range c.workers {
		w.mu.Lock()
		_, had := w.uploaded[name]
		delete(w.uploaded, name)
		healthy := w.healthy
		w.mu.Unlock()
		if had && healthy {
			ctx, cancel := context.WithTimeout(context.Background(), c.cfg.RequestTimeout)
			_ = w.client.DeleteGraph(ctx, name)
			cancel()
		}
	}
	return nil
}

// View reports worker health and the current ring placement of every stored
// graph — the GET /v1/cluster document.
func (c *Coordinator) View() httpapi.ClusterView {
	var v httpapi.ClusterView
	for _, w := range c.workers {
		w.mu.Lock()
		v.Workers = append(v.Workers, httpapi.ClusterWorker{
			URL:        w.url,
			Healthy:    w.healthy,
			Graphs:     len(w.uploaded),
			InFlight:   w.inFlight,
			QueueDepth: w.queueDepth,
			Dispatched: w.dispatched,
			Failures:   w.failures,
			LastError:  w.lastErr,
		})
		w.mu.Unlock()
	}
	for _, info := range c.st.List() {
		p := httpapi.ClusterPlacement{Graph: info.Name, Fingerprint: info.Fingerprint}
		if w := c.owner(info.Fingerprint); w != nil {
			p.Worker = w.url
		}
		v.Placements = append(v.Placements, p)
	}
	return v
}

// Metrics merges the coordinator's counters with the summed counters of
// every worker that answers /metrics. Fleet cache-hit rates are recomputed
// from the sums; fleet latency percentiles are per-worker maxima.
func (c *Coordinator) Metrics() httpapi.ClusterMetrics {
	m := httpapi.ClusterMetrics{
		WorkersTotal:     len(c.workers),
		BatchesSubmitted: c.batchesSubmitted.Load(),
		BatchesDone:      c.batchesDone.Load(),
		BatchesCanceled:  c.batchesCanceled.Load(),
		BatchCells:       c.batchCells.Load(),
		CellsDispatched:  c.cellsDispatched.Load(),
		CellRetries:      c.cellRetries.Load(),
		WorkerFailures:   c.workerFailures.Load(),
		GroupsDispatched: c.groupsDispatched.Load(),
		HedgesFired:      c.hedgesFired.Load(),
		HedgesWon:        c.hedgesWon.Load(),
		HedgesWasted:     c.hedgesWasted.Load(),
		WireBytesTotal:   c.wireBytes.Load(),
	}
	// Fan the worker round trips out: one hung worker must cost one request
	// timeout for the whole scrape, not one per worker. WorkersHealthy
	// counts the workers that actually answered this scrape, so it can
	// never disagree with the Fleet sums beside it.
	fetched := make([]*httpapi.MetricsResponse, len(c.workers))
	var wg sync.WaitGroup
	for i, w := range c.workers {
		if !w.isHealthy() {
			continue
		}
		wg.Add(1)
		go func(i int, w *worker) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), c.cfg.RequestTimeout)
			defer cancel()
			if wm, err := w.client.Metrics(ctx); err == nil {
				fetched[i] = &wm
			}
		}(i, w)
	}
	wg.Wait()
	for _, wm := range fetched {
		if wm == nil {
			continue
		}
		m.WorkersHealthy++
		f := &m.Fleet
		f.Submitted += wm.Submitted
		f.Completed += wm.Completed
		f.Failed += wm.Failed
		f.Canceled += wm.Canceled
		f.CacheHits += wm.CacheHits
		f.CacheMisses += wm.CacheMisses
		f.BatchMembers += wm.BatchMembers
		f.BatchCacheHits += wm.BatchCacheHits
		f.BatchCacheMisses += wm.BatchCacheMisses
		f.CacheSize += wm.CacheSize
		f.Queued += wm.Queued
		f.Running += wm.Running
		f.Workers += wm.Workers
		f.LatencyP50Ms = max(f.LatencyP50Ms, wm.LatencyP50Ms)
		f.LatencyP90Ms = max(f.LatencyP90Ms, wm.LatencyP90Ms)
		f.LatencyP99Ms = max(f.LatencyP99Ms, wm.LatencyP99Ms)
		f.BatchesSubmitted += wm.BatchesSubmitted
		f.BatchesDone += wm.BatchesDone
		f.BatchesCanceled += wm.BatchesCanceled
		f.BatchCells += wm.BatchCells
	}
	if lookups := m.Fleet.CacheHits + m.Fleet.CacheMisses; lookups > 0 {
		m.Fleet.CacheHitRate = float64(m.Fleet.CacheHits) / float64(lookups)
	}
	if lookups := m.Fleet.BatchCacheHits + m.Fleet.BatchCacheMisses; lookups > 0 {
		m.Fleet.BatchCacheHitRate = float64(m.Fleet.BatchCacheHits) / float64(lookups)
	}
	return m
}

// pinnedGraph is one distinct graph pinned for a batch's lifetime, with its
// compact binary encoding (graph.EncodeBinary) rendered at most once across
// all uploads.
type pinnedGraph struct {
	g    *graph.Graph
	fp   string
	once sync.Once
	bin  []byte
	err  error
}

func (p *pinnedGraph) encoded() ([]byte, error) {
	p.once.Do(func() {
		var buf bytes.Buffer
		p.err = graph.EncodeBinary(&buf, p.g)
		p.bin = buf.Bytes()
	})
	return p.bin, p.err
}

// ensureGraph uploads the pinned graph to w under name unless this
// coordinator already did. Concurrent dispatches sharing the graph
// singleflight: one uploads, the rest wait and re-check — the graph crosses
// the network once per worker. A stale name binding on the worker (left by a
// deleted-and-rebound coordinator name) is deleted and re-put once.
func (c *Coordinator) ensureGraph(ctx context.Context, w *worker, name string, pg *pinnedGraph) error {
	for {
		w.mu.Lock()
		if fp, ok := w.uploaded[name]; ok && fp == pg.fp {
			w.mu.Unlock()
			return nil
		}
		if ch, busy := w.uploading[name]; busy {
			w.mu.Unlock()
			select {
			case <-ch: // the uploader finished (either way); re-check
				continue
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		ch := make(chan struct{})
		w.uploading[name] = ch
		w.mu.Unlock()

		err := c.uploadGraph(ctx, w, name, pg)
		w.mu.Lock()
		delete(w.uploading, name)
		if err == nil {
			w.uploaded[name] = pg.fp
		}
		w.mu.Unlock()
		close(ch)
		return err
	}
}

// uploadGraph ships the binary graph encoding to w, repairing a stale 409
// binding once. Uploaded body bytes land in the wire-bytes counter.
func (c *Coordinator) uploadGraph(ctx context.Context, w *worker, name string, pg *pinnedGraph) error {
	bin, err := pg.encoded()
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(ctx, c.cfg.RequestTimeout)
	defer cancel()
	_, n, err := w.client.PutGraphBinary(ctx, name, bin)
	c.wireBytes.Add(uint64(n))
	if err != nil {
		var apiErr *httpapi.APIError
		if errors.As(err, &apiErr) && apiErr.Status == http.StatusConflict {
			_ = w.client.DeleteGraph(ctx, name)
			_, n, err = w.client.PutGraphBinary(ctx, name, bin)
			c.wireBytes.Add(uint64(n))
		}
	}
	return err
}
