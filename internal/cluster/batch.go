package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/httpapi"
	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/service"
)

// cmember is the coordinator-side state of one batch cell.
type cmember struct {
	cell service.BatchCell
	// jobRef names the worker-side batch ("w<id>:<batch ID>") running the
	// cell, or — once terminal — the one whose result it kept.
	jobRef   string
	state    service.State
	cacheHit bool
	err      string
	result   *registry.Result
}

// cbatch is one sharded batch.
type cbatch struct {
	id string
	// traceID is the batch's trace root; cell i runs (and is submitted to its
	// worker) under the child trace "<traceID>.<i>", so one grep over
	// coordinator and worker logs follows a cell across retries and hosts.
	traceID string
	tenant  string
	timeout time.Duration
	// ctx is canceled by CancelBatch and Close; every slot wait and result
	// stream observes it.
	ctx    context.Context
	cancel context.CancelFunc
	graphs map[string]*pinnedGraph

	mu         sync.Mutex
	cells      []cmember
	state      service.BatchState
	cancelReq  bool
	dispatched int
	done       int
	failed     int
	canceled   int
	cacheHits  int
	created    time.Time
	finished   time.Time
	releases   []func()
	doneCh     chan struct{}
	// progress is closed and replaced on every cell-terminal transition so
	// streaming waiters (WaitCell) wake without polling.
	progress chan struct{}
	groups   []service.BatchGroup
}

// signalProgressLocked wakes streaming waiters after cell-terminal
// transitions. Must be called with bt.mu held.
func (bt *cbatch) signalProgressLocked() {
	if bt.progress != nil {
		close(bt.progress)
		bt.progress = make(chan struct{})
	}
}

// SubmitBatch validates and launches a sharded batch: the spec expands
// through the same service.BatchSpec code path as a single-node batch, every
// referenced graph is pinned in the coordinator's local store, and one
// dispatch goroutine per unit runs it on the owning worker (gated by that
// worker's in-flight window). Poll GetBatch or WaitBatch for progress.
func (c *Coordinator) SubmitBatch(spec service.BatchSpec) (service.BatchView, error) {
	c.mu.Lock()
	if c.draining {
		c.mu.Unlock()
		return service.BatchView{}, service.ErrDraining
	}
	c.mu.Unlock()
	// Expansion, validation and pinning are the literal single-node code
	// path, so coordinator and worker accept exactly the same specs. The
	// pins are what keep retried cells re-placeable after a worker dies.
	cells, pinned, releases, err := service.PrepareBatch(c.st, spec, c.cfg.MaxCells)
	if err != nil {
		return service.BatchView{}, err
	}
	graphs := make(map[string]*pinnedGraph, len(pinned))
	for name, g := range pinned {
		info, _ := c.st.Get(name)
		graphs[name] = &pinnedGraph{g: g, fp: info.Fingerprint}
	}

	trace := spec.TraceID
	if trace == "" {
		trace = obs.NewTraceID()
	}
	ctx, cancel := context.WithCancel(context.Background())
	bt := &cbatch{
		traceID:  trace,
		tenant:   spec.Tenant,
		timeout:  spec.Timeout,
		ctx:      ctx,
		cancel:   cancel,
		graphs:   graphs,
		cells:    make([]cmember, len(cells)),
		state:    service.BatchRunning,
		created:  time.Now(),
		releases: releases,
		doneCh:   make(chan struct{}),
		progress: make(chan struct{}),
	}
	for i, cell := range cells {
		bt.cells[i] = cmember{cell: cell, state: service.Queued}
	}

	c.mu.Lock()
	c.nextID++
	bt.id = fmt.Sprintf("b%06d", c.nextID)
	c.batches[bt.id] = bt
	c.mu.Unlock()
	c.batchesSubmitted.Add(1)
	c.batchCells.Add(uint64(len(cells)))
	c.log.Info("batch submitted", "event", "batch_submit",
		"batch", bt.id, "trace", bt.traceID, "tenant", bt.tenant, "cells", len(cells))

	c.runWG.Add(1)
	go c.run(bt)
	return bt.view(), nil
}

// run dispatches the batch's units, each on its own goroutine gated by the
// target worker's window, and finalizes the batch once all cells are
// terminal.
func (c *Coordinator) run(bt *cbatch) {
	defer c.runWG.Done()
	var wg sync.WaitGroup
	for _, u := range c.unitsOf(bt) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.runUnit(bt, u)
		}()
	}
	wg.Wait()

	bt.mu.Lock()
	if bt.cancelReq {
		bt.state = service.BatchCanceled
		c.batchesCanceled.Add(1)
	} else {
		bt.state = service.BatchDone
		c.batchesDone.Add(1)
	}
	bt.finished = time.Now()
	for _, release := range bt.releases {
		release()
	}
	bt.releases = nil
	close(bt.doneCh)
	bt.mu.Unlock()
	bt.cancel() // release the context's timer resources

	c.mu.Lock()
	c.terminal = append(c.terminal, bt.id)
	for len(c.terminal) > c.cfg.MaxBatches {
		delete(c.batches, c.terminal[0])
		c.terminal = c.terminal[1:]
	}
	c.mu.Unlock()

	bt.mu.Lock()
	c.log.Info("batch finished", "event", "batch_done",
		"batch", bt.id, "trace", bt.traceID, "tenant", bt.tenant, "state", string(bt.state),
		"done", bt.done, "failed", bt.failed, "canceled", bt.canceled,
		"duration", bt.finished.Sub(bt.created))
	bt.mu.Unlock()
}

// errWorkerDown reports that a dispatch target was marked down while the
// unit waited on its window slot — re-place without recording a new failure.
var errWorkerDown = errors.New("cluster: worker went down before dispatch")

// errStalled cancels a result stream that carried no byte, keepalives
// included, for a whole idle limit (RequestTimeout, at least three
// keepalives).
var errStalled = errors.New("cluster: worker stream stalled")

// errRedispatch reports a healthy worker that did not run the unit's open
// cells — a 429 (the worker key's rate or stream bound) or a result stream
// answered 404 — so they are retried without marking the worker down.
var errRedispatch = errors.New("cluster: worker refused the unit")

// cellOutcome is the application-level result of running a cell on a worker;
// worker-level failures travel as errors beside it.
type cellOutcome struct {
	state    service.State
	cacheHit bool
	errMsg   string
	result   *registry.Result
}

// unit is one dispatch group: up to Config.GroupSize cells sharing a graph
// and every parameter except the seed, shipped to a worker as one batch of
// explicit cells (one graph lookup, one submit, one result stream).
type unit struct {
	idxs  []int // batch cell indices, in expansion order
	graph string
	// open counts the unit's cells not yet terminal; guarded by the batch
	// mutex.
	open int
}

// unitsOf partitions a batch's cells into dispatch units: cells agreeing on
// graph and on every seed-independent parameter (the same key as
// service.GroupCells) ride together, chunked at Config.GroupSize so one
// straggling unit cannot serialize an entire seed axis.
func (c *Coordinator) unitsOf(bt *cbatch) []*unit {
	var out []*unit
	open := make(map[string]*unit)
	for i := range bt.cells {
		cell := bt.cells[i].cell
		p := cell.Params
		p.Seed = 0
		key := cell.Graph + "|" + cell.Algo
		if spec, ok := registry.Get(cell.Algo); ok {
			key = cell.Graph + "|" + spec.CacheKey(p)
		}
		u := open[key]
		if u == nil || len(u.idxs) >= c.cfg.GroupSize {
			u = &unit{graph: cell.Graph}
			open[key] = u
			out = append(out, u)
		}
		u.idxs = append(u.idxs, i)
		u.open++
	}
	return out
}

// attempt is the outcome of one worker attempt at a unit.
type attempt struct {
	w      *worker
	hedged bool
	// won is set when this attempt settled the unit's last open cell.
	won bool
	// err is a worker-level failure: the caller marks w down and re-places
	// the unit's open cells.
	err error
}

// runUnit places one unit on the ring and runs it until every cell is
// terminal. A worker-level failure marks the worker down and re-places only
// the cells still open. With Config.Hedge set, a unit still running past
// the straggler threshold sends its open cells to the next distinct healthy
// worker as well: each cell keeps the first result that arrives, the
// attempt settling the unit's last cell wins, and the other attempt is
// canceled (its worker-side batch with it). Dispatch is therefore
// at-least-once; the idempotent settle keeps the merge at-most-once.
func (c *Coordinator) runUnit(bt *cbatch, u *unit) {
	pg := bt.graphs[u.graph]
	// The unit's trace is its first cell's child trace; every cell still
	// carries its own child ID to the worker, so per-cell greps keep working
	// across hosts.
	utrace := obs.ChildTraceID(bt.traceID, u.idxs[0])
	maxAttempts := 2 * len(c.workers)

	attemptCtx, cancelAttempts := context.WithCancel(bt.ctx)
	var lwg sync.WaitGroup
	hedged, hedgeWon := false, false
	defer func() {
		// The unit is settled (or given up): cut any losing attempt loose and
		// wait for it to cancel its worker-side batch, so no goroutine and no
		// window slot outlives the unit.
		cancelAttempts()
		lwg.Wait()
		if hedgeWon {
			c.hedgesWon.Add(1)
		} else if hedged {
			c.hedgesWasted.Add(1)
		}
	}()

	results := make(chan attempt, 2)
	launch := func(w *worker, hedge bool, open []int) {
		lwg.Add(1)
		go func() {
			defer lwg.Done()
			start := time.Now()
			won, err := c.dispatch(attemptCtx, bt, u, open, w, pg, utrace)
			if won {
				c.recordGroupDur(time.Since(start))
			}
			results <- attempt{w: w, hedged: hedge, won: won, err: err}
		}()
	}

	var lastErr error
	attempts, inflight := 0, 0
	var primary *worker
	var straggle <-chan time.Time
	place := func() bool {
		w := c.owner(pg.fp)
		if w == nil {
			return false
		}
		primary = w
		launch(w, false, bt.openCells(u))
		inflight++
		if d := c.stragglerThreshold(); d > 0 && !hedged {
			straggle = time.After(d)
		}
		return true
	}
	giveUp := func() {
		msg := "cluster: no healthy workers"
		if attempts >= maxAttempts {
			msg = fmt.Sprintf("cluster: giving up after %d attempts: %v", attempts, lastErr)
		} else if lastErr != nil {
			msg = fmt.Sprintf("%s (last worker error: %v)", msg, lastErr)
		}
		bt.settleOpen(u, cellOutcome{state: service.Failed, errMsg: msg})
	}

	if bt.ctx.Err() != nil {
		bt.settleOpen(u, cellOutcome{state: service.Canceled})
		return
	}
	if !place() {
		giveUp()
		return
	}
	for {
		select {
		case at := <-results:
			inflight--
			switch {
			case at.won:
				hedgeWon = at.hedged
				return
			case at.err == nil:
				// Canceled, or ended without settling the unit's last cell.
			case errors.Is(at.err, errWorkerDown):
				// Downed (by another dispatch or a probe) between placement
				// and dispatch: nothing new learned, just re-place.
				c.log.Info("group re-placed", "event", "group_replace",
					"batch", bt.id, "trace", utrace, "worker", at.w.url)
			default:
				if !errors.Is(at.err, errRedispatch) {
					c.markDown(at.w, at.err)
				}
				open := bt.openCount(u)
				c.cellRetries.Add(uint64(open))
				lastErr = at.err
				attempts++
				c.log.Warn("group retry", "event", "group_retry",
					"batch", bt.id, "trace", utrace, "worker", at.w.url,
					"cells", open, "attempt", attempts, "error", at.err.Error())
			}
			if inflight > 0 {
				continue // the surviving attempt (primary or hedge) may still win
			}
			if bt.ctx.Err() != nil {
				bt.settleOpen(u, cellOutcome{state: service.Canceled})
				return
			}
			if bt.openCount(u) == 0 {
				return
			}
			if attempts >= maxAttempts || !place() {
				giveUp()
				return
			}
		case <-straggle:
			straggle = nil
			c.log.Warn("group straggling", "event", "group_straggler",
				"batch", bt.id, "trace", utrace, "worker", primary.url)
			if !c.cfg.Hedge || inflight != 1 {
				continue
			}
			open := bt.openCells(u)
			w2 := c.hedgeTarget(pg.fp, primary)
			if w2 == nil || len(open) == 0 {
				continue
			}
			hedged = true
			c.hedgesFired.Add(1)
			c.log.Info("group hedged", "event", "group_hedge",
				"batch", bt.id, "trace", utrace, "primary", primary.url,
				"hedge", w2.url, "cells", len(open))
			launch(w2, true, open)
			inflight++
		}
	}
}

// dispatch runs one attempt at unit u's open cells on w: acquire one window
// slot, ensure the graph is uploaded, submit the cells as a worker batch,
// and settle each cell as its frame arrives on the worker's result stream.
// won reports that this attempt settled the unit's last open cell. A non-nil
// error is a worker-level failure (transport error, 5xx, broken or stalled
// stream) or errRedispatch (429, or a result stream answered 404);
// deterministic rejections (other 4xx) fail the cells instead.
// Cancellation of ctx — batch cancel, or losing a hedge race — cancels the
// worker-side batch and returns quietly.
func (c *Coordinator) dispatch(ctx context.Context, bt *cbatch, u *unit, open []int, w *worker, pg *pinnedGraph, utrace string) (won bool, err error) {
	w.mu.Lock()
	w.queueDepth++
	w.mu.Unlock()
	acquired := false
	select {
	case w.slots <- struct{}{}:
		acquired = true
	case <-ctx.Done():
	}
	w.mu.Lock()
	w.queueDepth--
	w.mu.Unlock()
	if !acquired {
		return false, nil
	}
	// Released on every path from here: select picks at random when the
	// slot and a done ctx are both ready.
	defer func() { <-w.slots }()
	if ctx.Err() != nil {
		return false, nil
	}
	if !w.isHealthy() {
		return false, errWorkerDown
	}
	w.mu.Lock()
	w.inFlight += len(open)
	w.dispatched += uint64(len(open))
	w.mu.Unlock()
	defer func() {
		w.mu.Lock()
		w.inFlight -= len(open)
		w.mu.Unlock()
	}()
	c.groupsDispatched.Add(1)
	c.cellsDispatched.Add(uint64(len(open)))
	fail := func(msg string) bool {
		return bt.settleAll(u, open, "", cellOutcome{state: service.Failed, errMsg: msg})
	}

	if err := c.ensureGraph(ctx, w, u.graph, pg); err != nil {
		var apiErr *httpapi.APIError
		switch {
		case ctx.Err() != nil:
			return false, nil
		case errors.As(err, &apiErr) && apiErr.Status < http.StatusInternalServerError:
			// A deterministic 4xx (e.g. 413, an unrepairable stale binding)
			// fails the cells; it does not indict the worker.
			return fail(fmt.Sprintf("cluster: uploading %s to %s: %v", u.graph, w.url, err)), nil
		default:
			return false, err
		}
	}

	// The worker batch runs under the batch's own trace; each cell carries
	// its coordinator child ID.
	req := httpapi.BatchRequest{
		Cells:     make([]httpapi.BatchCell, len(open)),
		TimeoutMs: bt.timeout.Milliseconds(),
		TraceID:   bt.traceID,
	}
	for k, i := range open {
		cell := bt.cells[i].cell
		req.Cells[k] = httpapi.BatchCell{
			Graph:   cell.Graph,
			Algo:    cell.Algo,
			Params:  httpapi.ParamsWire(cell.Params),
			TraceID: obs.ChildTraceID(bt.traceID, i),
		}
	}
	var sub httpapi.BatchResponse
	for uploads := 0; ; {
		cctx, cancel := context.WithTimeout(ctx, c.cfg.RequestTimeout)
		sub, err = w.client.SubmitBatch(cctx, req)
		cancel()
		if err == nil {
			break
		}
		if ctx.Err() != nil {
			return false, nil
		}
		var apiErr *httpapi.APIError
		if !errors.As(err, &apiErr) || apiErr.Status >= http.StatusInternalServerError {
			return false, err
		}
		if apiErr.Status == http.StatusTooManyRequests {
			return false, fmt.Errorf("%w: %v", errRedispatch, err)
		}
		if apiErr.Status == http.StatusNotFound && uploads < 2 {
			// The worker evicted our graph between upload and submit
			// (capacity pressure on its store); re-upload and retry.
			uploads++
			w.mu.Lock()
			delete(w.uploaded, u.graph)
			w.mu.Unlock()
			if err := c.ensureGraph(ctx, w, u.graph, pg); err != nil {
				if ctx.Err() != nil {
					return false, nil
				}
				return false, err
			}
			continue
		}
		// Remaining 4xx are deterministic rejections: the cells would be
		// rejected identically anywhere.
		return fail(apiErr.Message), nil
	}
	ref := fmt.Sprintf("w%d:%s", w.id, sub.ID)
	bt.noteDispatched(open, ref)
	c.log.Info("group dispatched", "event", "group_dispatch",
		"batch", bt.id, "trace", utrace, "worker", w.url, "worker_batch", sub.ID,
		"cells", len(open))

	// RequestTimeout is the stream's idle limit: every byte read, keepalives
	// included, re-arms the watchdog. Held to at least three worker
	// keepalives, a long run is not a stall.
	idle := max(c.cfg.RequestTimeout, 3*httpapi.StreamKeepalive)
	sctx, stop := context.WithCancelCause(ctx)
	defer stop(nil)
	watchdog := time.AfterFunc(idle, func() { stop(errStalled) })
	defer watchdog.Stop()
	client := w.client.Watched(func(n int) {
		c.wireBytes.Add(uint64(n))
		watchdog.Reset(idle)
	})
	streamed := 0
	_, err = client.StreamBatch(sctx, sub.ID, 0, func(cv httpapi.BatchCellView) error {
		if cv.Index != streamed || streamed >= len(open) {
			return fmt.Errorf("cluster: worker %s streamed cell %d, want %d of %d", w.url, cv.Index, streamed, len(open))
		}
		state := service.State(cv.State)
		if !state.Terminal() || (state == service.Failed && cv.Error == service.ErrClosed.Error()) {
			// A cell frozen unsettled, or failed because the worker is
			// shutting down, says nothing about the cell: retry elsewhere.
			return fmt.Errorf("cluster: worker %s could not run cell %d: %s %s", w.url, cv.Index, cv.State, cv.Error)
		}
		if bt.settleAll(u, open[streamed:streamed+1], ref, outcomeOf(w, cv)) {
			won = true
		}
		streamed++
		return nil
	})
	// Best-effort worker-side cancel on a fresh context — the attempt
	// context may already be dead.
	cancelRemote := func() {
		cctx, cancel := context.WithTimeout(context.Background(), c.cfg.RequestTimeout)
		_, _ = w.client.CancelBatch(cctx, sub.ID)
		cancel()
	}
	var apiErr *httpapi.APIError
	switch {
	case ctx.Err() != nil:
		cancelRemote()
		return won, nil
	case errors.As(err, &apiErr) && (apiErr.Status == http.StatusNotFound || apiErr.Status == http.StatusTooManyRequests):
		// The worker is up but will not stream this batch: it already
		// retired it (404) or our key is at its stream bound (429).
		cancelRemote()
		return won, fmt.Errorf("%w: %v", errRedispatch, err)
	case err != nil:
		if errors.Is(context.Cause(sctx), errStalled) {
			err = fmt.Errorf("%w: no bytes from %s for %s", errStalled, w.url, idle)
		}
		return won, err
	case streamed != len(open):
		// A shape mismatch is version skew, deterministic on any worker.
		msg := fmt.Sprintf("cluster: worker %s returned %d cells for a %d-cell group", w.url, streamed, len(open))
		return fail(msg) || won, nil
	}
	return won, nil
}

// outcomeOf converts a streamed worker cell into its coordinator outcome. A
// result the coordinator cannot decode is deterministic (version skew, not
// a flaky worker), so the cell fails terminally like an application failure.
func outcomeOf(w *worker, cv httpapi.BatchCellView) cellOutcome {
	res, err := cv.Result.ToResult()
	if err != nil {
		return cellOutcome{state: service.Failed,
			errMsg: fmt.Sprintf("cluster: worker %s returned a bad result: %v", w.url, err)}
	}
	return cellOutcome{
		state:    service.State(cv.State),
		cacheHit: cv.CacheHit,
		errMsg:   cv.Error,
		result:   res,
	}
}

// openCells lists unit u's cells not yet terminal.
func (bt *cbatch) openCells(u *unit) []int {
	bt.mu.Lock()
	defer bt.mu.Unlock()
	var open []int
	for _, i := range u.idxs {
		if !bt.cells[i].state.Terminal() {
			open = append(open, i)
		}
	}
	return open
}

// openCount reports how many of unit u's cells are not yet terminal.
func (bt *cbatch) openCount(u *unit) int {
	bt.mu.Lock()
	defer bt.mu.Unlock()
	return u.open
}

// noteDispatched records which worker batch runs the given cells, for the
// progress view and the Submitted counter. Hedged and retried dispatches
// re-enter here: only a cell's first dispatch counts toward Submitted (so it
// never exceeds Total), and cells a racing winner already settled are left
// untouched.
func (bt *cbatch) noteDispatched(idxs []int, ref string) {
	bt.mu.Lock()
	defer bt.mu.Unlock()
	for _, i := range idxs {
		m := &bt.cells[i]
		if m.state.Terminal() {
			continue
		}
		if m.jobRef == "" {
			bt.dispatched++
		}
		m.jobRef = ref
		m.state = service.Running
	}
}

// settleAll is the one cell finisher: it records out for every listed cell
// of unit u that is not terminal yet and leaves terminal ones untouched —
// the guard that turns at-least-once dispatch into an at-most-once merge
// (DESIGN.md §6a). ref, when set, names the worker batch that produced out.
// It reports whether it settled the unit's last open cell.
func (bt *cbatch) settleAll(u *unit, idxs []int, ref string, out cellOutcome) bool {
	bt.mu.Lock()
	defer bt.mu.Unlock()
	settled := 0
	for _, i := range idxs {
		m := &bt.cells[i]
		if m.state.Terminal() {
			continue
		}
		if ref != "" {
			m.jobRef = ref
		}
		m.state = out.state
		m.cacheHit = out.cacheHit
		m.err = out.errMsg
		m.result = out.result
		settled++
		switch out.state {
		case service.Done:
			bt.done++
		case service.Failed:
			bt.failed++
		case service.Canceled:
			bt.canceled++
		}
		if out.cacheHit {
			bt.cacheHits++
		}
	}
	if settled == 0 {
		return false
	}
	u.open -= settled
	bt.signalProgressLocked()
	return u.open == 0
}

// settleOpen settles every still-open cell of unit u with out.
func (bt *cbatch) settleOpen(u *unit, out cellOutcome) {
	bt.settleAll(u, u.idxs, "", out)
}

// GetBatch returns a snapshot of the batch with the given ID.
func (c *Coordinator) GetBatch(id string) (service.BatchView, bool) {
	c.mu.Lock()
	bt, ok := c.batches[id]
	c.mu.Unlock()
	if !ok {
		return service.BatchView{}, false
	}
	return bt.view(), true
}

// WaitBatch blocks until the batch is terminal or d has elapsed (d <= 0
// returns immediately), then returns the current snapshot.
func (c *Coordinator) WaitBatch(id string, d time.Duration) (service.BatchView, bool) {
	c.mu.Lock()
	bt, ok := c.batches[id]
	c.mu.Unlock()
	if !ok {
		return service.BatchView{}, false
	}
	if d > 0 {
		select {
		case <-bt.doneCh:
		case <-time.After(d):
		}
	}
	return bt.view(), true
}

// WaitCell blocks until cell index of batch id is terminal, the whole batch
// is terminal, or d has elapsed, then returns that cell's snapshot. The
// second return is false only when the batch or index does not exist. This
// is the long-poll primitive behind incremental result streaming: the
// streaming handler walks indices in order, parking here until each settles.
func (c *Coordinator) WaitCell(id string, index int, d time.Duration) (service.BatchCellView, bool) {
	c.mu.Lock()
	bt, ok := c.batches[id]
	c.mu.Unlock()
	if !ok {
		return service.BatchCellView{}, false
	}
	deadline := time.Now().Add(d)
	for {
		bt.mu.Lock()
		if index < 0 || index >= len(bt.cells) {
			bt.mu.Unlock()
			return service.BatchCellView{}, false
		}
		cv := bt.cellViewLocked(index)
		settled := cv.State.Terminal() || bt.state.Terminal()
		progress := bt.progress
		bt.mu.Unlock()
		remain := time.Until(deadline)
		if settled || remain <= 0 {
			return cv, true
		}
		timer := time.NewTimer(remain)
		select {
		case <-progress:
		case <-bt.doneCh:
		case <-timer.C:
		}
		timer.Stop()
	}
}

// ListBatches returns a summary snapshot of every retained batch, oldest
// first.
func (c *Coordinator) ListBatches() []service.BatchView {
	c.mu.Lock()
	bts := make([]*cbatch, 0, len(c.batches))
	for _, bt := range c.batches {
		bts = append(bts, bt)
	}
	c.mu.Unlock()
	slices.SortFunc(bts, func(x, y *cbatch) int { return strings.Compare(x.id, y.id) })
	out := make([]service.BatchView, len(bts))
	for i, bt := range bts {
		out[i] = bt.summary()
	}
	return out
}

// CancelBatch stops a running batch: undispatched cells are dropped, the
// worker-side batches in flight are canceled best-effort, finished cells keep
// their results. Finished batches return service.ErrBatchFinished.
func (c *Coordinator) CancelBatch(id string) (service.BatchView, error) {
	c.mu.Lock()
	bt, ok := c.batches[id]
	c.mu.Unlock()
	if !ok {
		return service.BatchView{}, service.ErrBatchNotFound
	}
	bt.mu.Lock()
	if bt.state.Terminal() {
		bt.mu.Unlock()
		return bt.view(), service.ErrBatchFinished
	}
	bt.cancelReq = true
	bt.mu.Unlock()
	// Wake every slot wait and result stream; each dispatch attempt then
	// cancels its own worker-side batch.
	bt.cancel()
	return bt.view(), nil
}

// summary is view without cell and group detail.
func (bt *cbatch) summary() service.BatchView {
	bt.mu.Lock()
	defer bt.mu.Unlock()
	return service.BatchView{
		ID:         bt.id,
		TraceID:    bt.traceID,
		Tenant:     bt.tenant,
		State:      bt.state,
		Total:      len(bt.cells),
		Submitted:  bt.dispatched,
		Done:       bt.done,
		Failed:     bt.failed,
		Canceled:   bt.canceled,
		CacheHits:  bt.cacheHits,
		CreatedAt:  bt.created,
		FinishedAt: bt.finished,
	}
}

// cellViewLocked snapshots one cell; bt.mu must be held.
func (bt *cbatch) cellViewLocked(i int) service.BatchCellView {
	m := &bt.cells[i]
	return service.BatchCellView{
		Index:    i,
		Graph:    m.cell.Graph,
		Algo:     m.cell.Algo,
		Params:   m.cell.Params,
		JobID:    m.jobRef,
		TraceID:  obs.ChildTraceID(bt.traceID, i),
		State:    m.state,
		CacheHit: m.cacheHit,
		Error:    m.err,
		Result:   m.result,
	}
}

func (bt *cbatch) view() service.BatchView {
	bt.mu.Lock()
	defer bt.mu.Unlock()
	v := service.BatchView{
		ID:         bt.id,
		TraceID:    bt.traceID,
		Tenant:     bt.tenant,
		State:      bt.state,
		Total:      len(bt.cells),
		Submitted:  bt.dispatched,
		Done:       bt.done,
		Failed:     bt.failed,
		Canceled:   bt.canceled,
		CacheHits:  bt.cacheHits,
		CreatedAt:  bt.created,
		FinishedAt: bt.finished,
		Cells:      make([]service.BatchCellView, len(bt.cells)),
	}
	for i := range bt.cells {
		v.Cells[i] = bt.cellViewLocked(i)
	}
	if bt.state.Terminal() {
		// Cells are immutable once terminal; aggregate once with the same
		// grouping code as the single-node engine and reuse across polls.
		if bt.groups == nil {
			bt.groups = service.GroupCells(v.Cells)
		}
		v.Groups = bt.groups
	}
	return v
}
