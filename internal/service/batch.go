package service

import (
	"errors"
	"fmt"
	"log/slog"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/wal"
)

// Batch errors surfaced to clients.
var (
	ErrBatchNotFound = errors.New("service: no such batch")
	ErrBatchFinished = errors.New("service: batch already finished")
	ErrBatchEmpty    = errors.New("service: batch expands to zero cells")
	ErrBatchTooLarge = errors.New("service: batch exceeds the cell cap")
	// ErrJournal wraps a submit whose ledger commit failed (a crashed,
	// poisoned or closed WAL): the server's fault, not the request's.
	ErrJournal = errors.New("service: batch journal unavailable")
)

// BatchConfig sizes the batch engine. Zero values select defaults.
type BatchConfig struct {
	// MaxCells bounds how many jobs one batch may expand into (default 4096).
	MaxCells int
	// MaxBatches bounds how many finished batches are retained for polling
	// (default 256); beyond it the oldest finished batches are evicted.
	MaxBatches int
	// WALDir, when non-empty, makes the batch engine durable: the batch
	// lifecycle is journaled there and incomplete batches resume on the next
	// boot (see ledger.go). New ignores this; use OpenBatches.
	WALDir string
	// SnapshotEvery compacts the ledger WAL after this many records (0 =
	// only the final snapshot written by Close).
	SnapshotEvery int
	// WALSegmentBytes overrides the WAL segment rotation size (testing).
	WALSegmentBytes int64
	// WALHooks injects crash points into the WAL (testing).
	WALHooks *wal.TestHooks
	// Logger, when set, receives wal_replay / batch_resumed events.
	Logger *slog.Logger
}

func (c BatchConfig) withDefaults() BatchConfig {
	if c.MaxCells <= 0 {
		c.MaxCells = 4096
	}
	if c.MaxBatches <= 0 {
		c.MaxBatches = 256
	}
	return c
}

// BatchState is a batch lifecycle state.
type BatchState string

const (
	// BatchRunning means members are still being expanded or executed.
	BatchRunning BatchState = "running"
	// BatchDone means every member reached a terminal state without the
	// batch being canceled (individual members may still have failed).
	BatchDone BatchState = "done"
	// BatchCanceled means the batch was canceled; members that had already
	// finished keep their results.
	BatchCanceled BatchState = "canceled"
)

// Terminal reports whether a batch in this state will never change again.
func (s BatchState) Terminal() bool { return s == BatchDone || s == BatchCanceled }

// BatchCell is one fully-specified (graph, algorithm, params) run.
type BatchCell struct {
	// Graph names a graph registered in the store.
	Graph string
	// Algo names a registered algorithm.
	Algo string
	// Params configures the run; zero fields mean registry defaults.
	Params registry.Params
	// TraceID, when set, is the trace the cell runs under instead of the
	// derived obs.ChildTraceID(batch TraceID, index) — the cluster
	// coordinator sets it so a worker-side cell carries the ID of the
	// coordinator cell it computes.
	TraceID string
}

// BatchSpec describes a batch: either an explicit cell list, or a grid —
// stored graphs × algorithms × parameter axes — expanded into the cross
// product. An empty axis contributes the registry default. Cells and grid
// axes are mutually exclusive.
type BatchSpec struct {
	// Graphs names stored graphs (grid axis).
	Graphs []string
	// Algos names registered algorithms (grid axis).
	Algos []string
	// Eps, K, Delta, MIS and Seeds are parameter axes.
	Eps   []float64
	K     []int
	Delta []float64
	MIS   []string
	Seeds []uint64
	// Cells, when set, is the explicit expansion (no grid axes allowed).
	Cells []BatchCell
	// Timeout bounds each member job (0 = the service default).
	Timeout time.Duration
	// TraceID identifies the batch across tiers; cell i runs under the
	// derived child ID obs.ChildTraceID(TraceID, i) unless the cell names
	// its own. Empty means the engine generates one at submit.
	TraceID string
	// Tenant is the submitting tenant's ID ("" = anonymous). It is
	// journaled with the batch, selects the fair-share lane for every
	// member job, and scopes visibility at the HTTP layer.
	Tenant string
}

// Expand returns the deterministic cell expansion of the spec: explicit
// cells verbatim, or the cross product iterated graph-major, seed-minor.
func (sp BatchSpec) Expand() ([]BatchCell, error) {
	gridSet := len(sp.Graphs)+len(sp.Algos)+len(sp.Eps)+len(sp.K)+
		len(sp.Delta)+len(sp.MIS)+len(sp.Seeds) > 0
	if len(sp.Cells) > 0 {
		if gridSet {
			return nil, errors.New("service: set either cells or grid axes, not both")
		}
		return slices.Clone(sp.Cells), nil
	}
	if len(sp.Graphs) == 0 {
		return nil, errors.New("service: batch needs at least one graph")
	}
	if len(sp.Algos) == 0 {
		return nil, errors.New("service: batch needs at least one algo")
	}
	eps := orZero(sp.Eps)
	ks := orZero(sp.K)
	deltas := orZero(sp.Delta)
	miss := orZero(sp.MIS)
	seeds := orZero(sp.Seeds)
	var cells []BatchCell
	for _, g := range sp.Graphs {
		for _, a := range sp.Algos {
			for _, e := range eps {
				for _, k := range ks {
					for _, d := range deltas {
						for _, m := range miss {
							for _, s := range seeds {
								cells = append(cells, BatchCell{
									Graph: g, Algo: a,
									Params: registry.Params{Eps: e, K: k, Delta: d, MIS: m, Seed: s},
								})
							}
						}
					}
				}
			}
		}
	}
	return cells, nil
}

// orZero maps an empty axis to the single zero value (= registry default).
func orZero[T any](xs []T) []T {
	if len(xs) == 0 {
		return make([]T, 1)
	}
	return xs
}

// BatchCellView is the snapshot of one member run.
type BatchCellView struct {
	Index int
	// TraceID is the cell's derived trace ID
	// (obs.ChildTraceID(batch TraceID, Index)); it prefixes every log line
	// and worker-side job the cell produced, across retries.
	TraceID  string
	Graph    string
	Algo     string
	Params   registry.Params
	JobID    string
	State    State
	CacheHit bool
	Error    string
	Result   *registry.Result
}

// BatchGroup aggregates the done members of one grid cell — same graph,
// algorithm and parameters modulo seed — with summary statistics over the
// seeds, computed via internal/stats.
type BatchGroup struct {
	Graph  string
	Algo   string
	Params registry.Params // Seed zeroed: the group varies over it
	Runs   int
	Done   int
	Failed int
	// Rounds, Weight and Size summarize the done members; Messages
	// summarizes their total delivered-message counts.
	Rounds   stats.Summary
	Weight   stats.Summary
	Size     stats.Summary
	Messages stats.Summary
	// Trace folds the done members' RoundTraces into one group summary
	// (counts sum, peaks max); nil when no member carried a trace.
	Trace *obs.RoundTrace
}

// BatchView is an immutable snapshot of a batch.
type BatchView struct {
	ID         string
	TraceID    string
	Tenant     string
	State      BatchState
	Total      int
	Submitted  int // members handed to the job engine so far
	Done       int
	Failed     int
	Canceled   int
	CacheHits  int
	CreatedAt  time.Time
	FinishedAt time.Time
	Cells      []BatchCellView
	Groups     []BatchGroup // populated once the batch is terminal
}

type memberState struct {
	cell     BatchCell
	jobID    string
	state    State
	cacheHit bool
	err      string
	result   *registry.Result
}

type batch struct {
	id      string
	traceID string
	tenant  string
	eng     *Batches
	timeout time.Duration

	mu        sync.Mutex
	cells     []memberState
	state     BatchState
	cancelReq bool
	// cancelAcked records that some cancel commit was acknowledged: a
	// concurrent Cancel whose own commit failed must not roll cancelReq back
	// past an acked one.
	cancelAcked bool
	feedDone    bool
	submitted   int
	terminal    int
	done        int
	failed      int
	canceled    int
	cacheHits   int
	created     time.Time
	finished    time.Time
	releases    []func()
	doneCh      chan struct{}
	// progress is closed and replaced on every cell-terminal transition so
	// streaming waiters (WaitCell) wake without polling.
	progress chan struct{}
	groups   []BatchGroup // aggregates, computed once after the terminal transition
}

// cellTrace is the trace cell i runs under: its own when it names one,
// else the batch's derived child ID. Cells are immutable after submit, so
// no lock is needed.
func (bt *batch) cellTrace(i int) string {
	if t := bt.cells[i].cell.TraceID; t != "" {
		return t
	}
	return obs.ChildTraceID(bt.traceID, i)
}

// signalProgressLocked wakes streaming waiters after a cell's terminal
// transition. Must be called with bt.mu held.
func (bt *batch) signalProgressLocked() {
	if bt.progress != nil {
		close(bt.progress)
		bt.progress = make(chan struct{})
	}
}

// Batches is the batch engine: it expands BatchSpecs over graphs pinned in
// a store into jobs on an underlying Service, tracks per-batch progress,
// fans cancellation out to members, and aggregates results per grid cell.
//
// Lock ordering: the engine only ever takes its own locks after the
// Service's (job notifications arrive under the Service mutex), and never
// calls into the Service while holding a batch lock.
type Batches struct {
	svc *Service
	st  *store.Store
	cfg BatchConfig

	mu       sync.Mutex
	batches  map[string]*batch
	terminal []string // finished batch IDs, oldest first, for eviction
	nextID   uint64

	// ledger is the durability journal, nil for engines built with
	// NewBatches or opened without a WALDir.
	ledger *ledger

	submittedCount atomic.Uint64
	doneCount      atomic.Uint64
	canceledCount  atomic.Uint64
	cellCount      atomic.Uint64
}

// BatchMetrics is a point-in-time snapshot of the batch engine's counters.
type BatchMetrics struct {
	BatchesSubmitted uint64 `json:"batches_submitted"`
	BatchesDone      uint64 `json:"batches_done"`
	BatchesCanceled  uint64 `json:"batches_canceled"`
	BatchCells       uint64 `json:"batch_cells"`
}

// NewBatches returns a batch engine over svc and st.
func NewBatches(svc *Service, st *store.Store, cfg BatchConfig) *Batches {
	return &Batches{
		svc:     svc,
		st:      st,
		cfg:     cfg.withDefaults(),
		batches: make(map[string]*batch),
	}
}

// Metrics returns a snapshot of the engine counters.
func (b *Batches) Metrics() BatchMetrics {
	return BatchMetrics{
		BatchesSubmitted: b.submittedCount.Load(),
		BatchesDone:      b.doneCount.Load(),
		BatchesCanceled:  b.canceledCount.Load(),
		BatchCells:       b.cellCount.Load(),
	}
}

// PrepareBatch is the shared submission prologue of the single-node engine
// and the cluster coordinator: expand the spec, bound it by maxCells,
// validate every cell's algorithm and params up front (so a bad grid fails
// fast rather than as a pile of failed member jobs), and pin every distinct
// graph once in st. On success the caller owns the releases — one per
// distinct graph — and must run them all when the batch ends; on error
// nothing stays pinned.
func PrepareBatch(st *store.Store, spec BatchSpec, maxCells int) ([]BatchCell, map[string]*graph.Graph, []func(), error) {
	cells, err := spec.Expand()
	if err != nil {
		return nil, nil, nil, err
	}
	if len(cells) == 0 {
		return nil, nil, nil, ErrBatchEmpty
	}
	if len(cells) > maxCells {
		return nil, nil, nil, fmt.Errorf("%w: %d cells, cap %d", ErrBatchTooLarge, len(cells), maxCells)
	}
	for i, c := range cells {
		spec, ok := registry.Get(c.Algo)
		if !ok {
			return nil, nil, nil, fmt.Errorf("service: cell %d: unknown algorithm %q", i, c.Algo)
		}
		if err := spec.Validate(c.Params); err != nil {
			return nil, nil, nil, fmt.Errorf("service: cell %d: %w", i, err)
		}
	}
	graphs := make(map[string]*graph.Graph)
	var releases []func()
	for _, c := range cells {
		if _, ok := graphs[c.Graph]; ok {
			continue
		}
		g, release, err := st.Acquire(c.Graph)
		if err != nil {
			for _, r := range releases {
				r()
			}
			return nil, nil, nil, err
		}
		graphs[c.Graph] = g
		releases = append(releases, release)
	}
	return cells, graphs, releases, nil
}

// Submit validates and launches a batch: the spec is expanded, every
// referenced graph is pinned in the store for the batch's lifetime, and the
// member jobs are fed to the job engine in the background (a full queue
// slows feeding down instead of failing the batch). The returned view
// reflects the batch at expansion time; poll Get or Wait for progress.
func (b *Batches) Submit(spec BatchSpec) (BatchView, error) {
	cells, graphs, releases, err := PrepareBatch(b.st, spec, b.cfg.MaxCells)
	if err != nil {
		return BatchView{}, err
	}

	trace := spec.TraceID
	if trace == "" {
		trace = obs.NewTraceID()
	}
	bt := &batch{
		eng:      b,
		traceID:  trace,
		tenant:   spec.Tenant,
		timeout:  spec.Timeout,
		cells:    make([]memberState, len(cells)),
		state:    BatchRunning,
		created:  time.Now(),
		releases: releases,
		doneCh:   make(chan struct{}),
		progress: make(chan struct{}),
	}
	for i, c := range cells {
		bt.cells[i] = memberState{cell: c, state: Queued}
	}

	b.mu.Lock()
	b.nextID++
	bt.id = fmt.Sprintf("b%06d", b.nextID)
	// Visible before acked: the batch must be in b.batches before the commit
	// ack is delivered, because the writer goroutine snapshots b.batches right
	// after acking and the snapshot supersedes the segment holding the submit
	// record — a batch registered only after the ack could land in neither. An
	// unacked batch surviving a crash is fine (the record could be durable
	// anyway); an acked batch lost is not.
	b.batches[bt.id] = bt
	b.mu.Unlock()

	// Durable before fed: the submit record is fsynced before any cell runs,
	// so every later cell record replays against a known batch. A failed
	// commit (crashed log) rolls the registration back and burns the ID.
	if b.ledger != nil {
		sp := submitPayload{
			ID: bt.id, TraceID: trace, Tenant: bt.tenant, TimeoutNS: int64(spec.Timeout),
			Created: bt.created, Cells: make([]cellSpecRec, len(cells)),
		}
		for i, c := range cells {
			sp.Cells[i] = cellSpecRec(c)
		}
		if err := b.ledger.commit(recBatchSubmit, sp); err != nil {
			b.mu.Lock()
			delete(b.batches, bt.id)
			b.mu.Unlock()
			for _, release := range releases {
				release()
			}
			return BatchView{}, fmt.Errorf("%w: %w", ErrJournal, err)
		}
	}
	b.submittedCount.Add(1)
	b.cellCount.Add(uint64(len(cells)))

	go b.feed(bt, graphs)
	return bt.view(), nil
}

// markUnsubmitted records a cell the feeder could not hand to the job
// engine (cancel or shutdown) as terminal itself.
func (bt *batch) markUnsubmitted(i int, state State, errMsg string) {
	bt.mu.Lock()
	defer bt.mu.Unlock()
	bt.cells[i].state = state
	bt.cells[i].err = errMsg
	bt.terminal++
	if state == Canceled {
		bt.canceled++
	} else {
		bt.failed++
	}
	bt.journalCellLocked(i)
	bt.signalProgressLocked()
}

// feed hands the batch's cells to the job engine one by one, backing off
// while the queue is full, and marks cells it can no longer submit (cancel,
// service shutdown) terminal itself.
func (b *Batches) feed(bt *batch, graphs map[string]*graph.Graph) {
	closed := false
	for i := range bt.cells {
		bt.mu.Lock()
		// A resumed batch restores finished cells from the ledger before the
		// feeder starts: skip them so they are never re-executed.
		if bt.cells[i].state.Terminal() {
			bt.mu.Unlock()
			continue
		}
		cell := bt.cells[i].cell
		canceled := bt.cancelReq
		bt.mu.Unlock()

		if closed {
			bt.markUnsubmitted(i, Failed, ErrClosed.Error())
			continue
		}
		if canceled {
			bt.markUnsubmitted(i, Canceled, "")
			continue
		}
		if graphs[cell.Graph] == nil {
			// Resume found the graph gone from the store; the cell fails,
			// the batch still finishes.
			bt.markUnsubmitted(i, Failed, fmt.Sprintf("%s: %q", store.ErrNotFound, cell.Graph))
			continue
		}

		req := Request{
			Algo:    cell.Algo,
			Graph:   graphs[cell.Graph],
			Params:  cell.Params,
			Timeout: bt.timeout,
			TraceID: bt.cellTrace(i),
			Tenant:  bt.tenant,
		}
		i := i
		var v JobView
		var err error
		for {
			v, err = b.svc.submit(req, true, func(v JobView) { bt.onMemberDone(i, v) })
			if !errors.Is(err, ErrQueueFull) {
				break
			}
			// Re-check for cancellation while throttled: a saturated queue
			// must not keep a canceled batch (and its graph pins) alive.
			bt.mu.Lock()
			canceled = bt.cancelReq
			bt.mu.Unlock()
			if canceled {
				break
			}
			time.Sleep(2 * time.Millisecond)
		}
		switch {
		case canceled:
			bt.markUnsubmitted(i, Canceled, "")
		case errors.Is(err, ErrDraining):
			// Graceful drain: stop feeding WITHOUT journaling the remaining
			// cells terminal — they were never handed to the engine, so the
			// WAL resume after restart re-feeds them. feedDone stays false,
			// keeping the batch open for that resume.
			return
		case errors.Is(err, ErrClosed):
			closed = true
			bt.markUnsubmitted(i, Failed, err.Error())
		case err != nil: // validation surprises; the cell fails, the batch goes on
			bt.markUnsubmitted(i, Failed, err.Error())
		default:
			bt.mu.Lock()
			// onMemberDone may already have fired (cache hit): it recorded
			// state and counters; only the job ID is ours to fill in.
			bt.cells[i].jobID = v.ID
			bt.submitted++
			lateCancel := bt.cancelReq && !bt.cells[i].state.Terminal()
			bt.mu.Unlock()
			if lateCancel {
				// A cancel raced our submission and its fan-out missed this
				// member; chase it down best-effort.
				_, _ = b.svc.Cancel(v.ID)
			}
		}
	}
	bt.mu.Lock()
	bt.feedDone = true
	b.finalizeLocked(bt)
	bt.mu.Unlock()
}

// onMemberDone is the job-terminal notification. It runs under the Service
// mutex and therefore only touches batch state.
func (bt *batch) onMemberDone(i int, v JobView) {
	bt.mu.Lock()
	defer bt.mu.Unlock()
	ms := &bt.cells[i]
	ms.state = v.State
	ms.cacheHit = v.CacheHit
	ms.err = v.Error
	ms.result = v.Result
	bt.terminal++
	switch v.State {
	case Done:
		bt.done++
	case Failed:
		bt.failed++
	case Canceled:
		bt.canceled++
	}
	if v.CacheHit {
		bt.cacheHits++
	}
	bt.journalCellLocked(i)
	bt.signalProgressLocked()
	bt.eng.finalizeLocked(bt)
}

// finalizeLocked transitions the batch to its terminal state once every cell
// is terminal and feeding has finished. Must be called with bt.mu held.
func (b *Batches) finalizeLocked(bt *batch) {
	if bt.state.Terminal() || !bt.feedDone || bt.terminal < len(bt.cells) {
		return
	}
	if bt.cancelReq {
		bt.state = BatchCanceled
		b.canceledCount.Add(1)
	} else {
		bt.state = BatchDone
		b.doneCount.Add(1)
	}
	bt.finished = time.Now()
	if b.ledger != nil {
		b.ledger.enqueue(recBatchTerminal, terminalPayload{Batch: bt.id, State: bt.state, Finished: bt.finished})
	}
	for _, release := range bt.releases {
		release()
	}
	bt.releases = nil
	close(bt.doneCh)
	b.retireTerminal(bt.id)
}

// retireTerminal records a finished batch for retention-bound eviction. It
// must not take b.mu synchronously (callers may hold bt.mu under s.mu), so
// the eviction runs on its own goroutine.
func (b *Batches) retireTerminal(id string) {
	go func() {
		b.mu.Lock()
		defer b.mu.Unlock()
		b.terminal = append(b.terminal, id)
		for len(b.terminal) > b.cfg.MaxBatches {
			delete(b.batches, b.terminal[0])
			b.terminal = b.terminal[1:]
		}
	}()
}

// Get returns a snapshot of the batch with the given ID.
func (b *Batches) Get(id string) (BatchView, bool) {
	b.mu.Lock()
	bt, ok := b.batches[id]
	b.mu.Unlock()
	if !ok {
		return BatchView{}, false
	}
	return bt.view(), true
}

// List returns a snapshot of every retained batch, oldest first. The
// snapshots carry no cells or groups — fetch a batch by ID for detail.
func (b *Batches) List() []BatchView {
	b.mu.Lock()
	bts := make([]*batch, 0, len(b.batches))
	for _, bt := range b.batches {
		bts = append(bts, bt)
	}
	b.mu.Unlock()
	slices.SortFunc(bts, func(x, y *batch) int { return strings.Compare(x.id, y.id) })
	out := make([]BatchView, len(bts))
	for i, bt := range bts {
		out[i] = bt.summary()
	}
	return out
}

// Cancel stops a running batch: members not yet fed to the job engine are
// dropped, queued and running members are canceled best-effort, and already
// finished members keep their results. Finished batches return
// ErrBatchFinished.
func (b *Batches) Cancel(id string) (BatchView, error) {
	b.mu.Lock()
	bt, ok := b.batches[id]
	b.mu.Unlock()
	if !ok {
		return BatchView{}, ErrBatchNotFound
	}
	bt.mu.Lock()
	if bt.state.Terminal() {
		bt.mu.Unlock()
		return bt.view(), ErrBatchFinished
	}
	// Effective before acked, like Submit's registration: cancelReq must be
	// set before the commit ack, because the writer snapshots right after
	// acking and the snapshot supersedes the cancel record's segment — a flag
	// raised only after the ack could be recorded nowhere, resurrecting an
	// acknowledged-canceled batch as running after a crash. Rolled back if the
	// commit fails (and no other Cancel's commit was acked meanwhile).
	prev := bt.cancelReq
	bt.cancelReq = true
	bt.mu.Unlock()
	if err := b.ledger.commit(recBatchCancel, cancelPayload{Batch: id}); err != nil {
		bt.mu.Lock()
		if !prev && !bt.cancelAcked {
			bt.cancelReq = false
		}
		bt.mu.Unlock()
		return BatchView{}, err
	}
	bt.mu.Lock()
	bt.cancelReq = true // re-assert past any concurrent failed Cancel's rollback
	bt.cancelAcked = true
	if bt.state.Terminal() {
		// cancelReq was raised before the first terminal check released bt.mu,
		// so any terminal transition since then saw the flag and finalized the
		// batch as canceled — e.g. the feeder reacting before the commit ack.
		// That is this cancel succeeding, not ErrBatchFinished.
		bt.mu.Unlock()
		return bt.view(), nil
	}
	var ids []string
	for i := range bt.cells {
		if ms := &bt.cells[i]; ms.jobID != "" && !ms.state.Terminal() {
			ids = append(ids, ms.jobID)
		}
	}
	bt.mu.Unlock()
	// Fan out with no batch lock held: each member's terminal notification
	// arrives under the Service mutex and re-takes bt.mu.
	for _, jobID := range ids {
		_, _ = b.svc.Cancel(jobID)
	}
	return bt.view(), nil
}

// Wait blocks until the batch is terminal or d has elapsed (d <= 0 returns
// immediately), then returns the current snapshot — the long-poll primitive
// behind GET /v1/batches/{id}?wait=.
func (b *Batches) Wait(id string, d time.Duration) (BatchView, bool) {
	b.mu.Lock()
	bt, ok := b.batches[id]
	b.mu.Unlock()
	if !ok {
		return BatchView{}, false
	}
	if d > 0 {
		select {
		case <-bt.doneCh:
		case <-time.After(d):
		}
	}
	return bt.view(), true
}

// WaitCell blocks until cell index of batch id reaches a terminal state,
// the batch itself is terminal, or d elapses, then returns the cell's
// snapshot — the per-cell long-poll primitive behind the streaming endpoint
// GET /v1/batches/{id}/stream. The second result is false when the batch or
// the index does not exist. A non-terminal snapshot after d means "still
// running": callers emit a keepalive and wait again.
func (b *Batches) WaitCell(id string, index int, d time.Duration) (BatchCellView, bool) {
	b.mu.Lock()
	bt, ok := b.batches[id]
	b.mu.Unlock()
	if !ok {
		return BatchCellView{}, false
	}
	deadline := time.Now().Add(d)
	for {
		bt.mu.Lock()
		if index < 0 || index >= len(bt.cells) {
			bt.mu.Unlock()
			return BatchCellView{}, false
		}
		cv := bt.cellViewLocked(index)
		// A resumed-then-terminal batch can hold non-terminal cells (their
		// records were dropped before the crash); batch-terminal settles the
		// wait so streams converge on exactly what the terminal GET shows.
		settled := cv.State.Terminal() || bt.state.Terminal()
		progress := bt.progress
		doneCh := bt.doneCh
		bt.mu.Unlock()
		remain := time.Until(deadline)
		if settled || remain <= 0 {
			return cv, true
		}
		t := time.NewTimer(remain)
		select {
		case <-progress:
		case <-doneCh:
		case <-t.C:
		}
		t.Stop()
	}
}

// summary is view without the cell and group detail: cheap enough for
// listings over large retained batches.
func (bt *batch) summary() BatchView {
	bt.mu.Lock()
	defer bt.mu.Unlock()
	return BatchView{
		ID:         bt.id,
		TraceID:    bt.traceID,
		Tenant:     bt.tenant,
		State:      bt.state,
		Total:      len(bt.cells),
		Submitted:  bt.submitted,
		Done:       bt.done,
		Failed:     bt.failed,
		Canceled:   bt.canceled,
		CacheHits:  bt.cacheHits,
		CreatedAt:  bt.created,
		FinishedAt: bt.finished,
	}
}

func (bt *batch) view() BatchView {
	bt.mu.Lock()
	defer bt.mu.Unlock()
	v := BatchView{
		ID:         bt.id,
		TraceID:    bt.traceID,
		Tenant:     bt.tenant,
		State:      bt.state,
		Total:      len(bt.cells),
		Submitted:  bt.submitted,
		Done:       bt.done,
		Failed:     bt.failed,
		Canceled:   bt.canceled,
		CacheHits:  bt.cacheHits,
		CreatedAt:  bt.created,
		FinishedAt: bt.finished,
		Cells:      make([]BatchCellView, len(bt.cells)),
	}
	for i := range bt.cells {
		v.Cells[i] = bt.cellViewLocked(i)
	}
	if bt.state.Terminal() {
		// Cells are immutable once the batch is terminal; aggregate once
		// and reuse across polls (computed lazily here, not in
		// finalizeLocked, which can run under the Service mutex).
		if bt.groups == nil {
			bt.groups = GroupCells(v.Cells)
		}
		v.Groups = bt.groups
	}
	return v
}

// cellViewLocked snapshots one member. Must be called with bt.mu held.
func (bt *batch) cellViewLocked(i int) BatchCellView {
	ms := &bt.cells[i]
	return BatchCellView{
		Index:    i,
		TraceID:  bt.cellTrace(i),
		Graph:    ms.cell.Graph,
		Algo:     ms.cell.Algo,
		Params:   ms.cell.Params,
		JobID:    ms.jobID,
		State:    ms.state,
		CacheHit: ms.cacheHit,
		Error:    ms.err,
		Result:   ms.result,
	}
}

// GroupCells aggregates terminal cells by (graph, algo, params modulo seed),
// in first-seen order, summarizing rounds, weight and solution size over the
// done members of each group. The cluster coordinator reuses it so merged
// multi-worker batches aggregate exactly like single-node ones.
func GroupCells(cells []BatchCellView) []BatchGroup {
	type acc struct {
		group                          *BatchGroup
		rounds, weight, size, messages []float64
		trace                          obs.RoundTrace
		traced                         bool
	}
	var order []string
	accs := make(map[string]*acc)
	for _, c := range cells {
		key := groupKey(c)
		a, ok := accs[key]
		if !ok {
			p := c.Params
			p.Seed = 0
			a = &acc{group: &BatchGroup{Graph: c.Graph, Algo: c.Algo, Params: p}}
			accs[key] = a
			order = append(order, key)
		}
		a.group.Runs++
		switch c.State {
		case Done:
			a.group.Done++
			a.rounds = append(a.rounds, float64(c.Result.Cost.Rounds))
			a.weight = append(a.weight, float64(c.Result.Weight))
			a.size = append(a.size, float64(c.Result.Size()))
			a.messages = append(a.messages, float64(c.Result.Cost.Messages))
			if t := c.Result.Trace; t != nil {
				a.trace.Add(*t)
				a.traced = true
			}
		case Failed:
			a.group.Failed++
		}
	}
	out := make([]BatchGroup, 0, len(order))
	for _, key := range order {
		a := accs[key]
		a.group.Rounds = stats.Summarize(a.rounds)
		a.group.Weight = stats.Summarize(a.weight)
		a.group.Size = stats.Summarize(a.size)
		a.group.Messages = stats.Summarize(a.messages)
		if a.traced {
			t := a.trace
			a.group.Trace = &t
		}
		out = append(out, *a.group)
	}
	return out
}

func groupKey(c BatchCellView) string {
	p := c.Params
	p.Seed = 0
	if spec, ok := registry.Get(c.Algo); ok {
		return c.Graph + "|" + spec.CacheKey(p)
	}
	return fmt.Sprintf("%s|%s|%+v", c.Graph, c.Algo, p)
}
