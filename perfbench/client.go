package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/httpapi"
	"repro/internal/service"
)

// server is an HTTP server on a loopback port.
type server struct {
	srv  *http.Server
	done chan struct{}
	url  string
}

func startServer(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{srv: &http.Server{Handler: h}, done: make(chan struct{}), url: "http://" + ln.Addr().String()}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln) // returns http.ErrServerClosed once stop runs
	}()
	return s, nil
}

// stop lets in-flight requests finish for up to two seconds, closes the
// server and waits until it has stopped serving.
func (s *server) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if s.srv.Shutdown(ctx) != nil {
		_ = s.srv.Close() // the deadline passed; cut the remaining connections
	}
	<-s.done
}

// countingTransport counts the body bytes a client sends and receives.
type countingTransport struct {
	base  *http.Transport
	bytes atomic.Int64
}

func newCountingTransport() *countingTransport {
	return &countingTransport{base: &http.Transport{MaxIdleConnsPerHost: 8, IdleConnTimeout: 30 * time.Second}}
}

func (t *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.ContentLength > 0 {
		t.bytes.Add(req.ContentLength)
	}
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, n: &t.bytes}
	return resp, nil
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

// refused reports whether err is a server refusal: rate limiting (429),
// overload or a full queue (503).
func refused(err error) bool {
	var api *httpapi.APIError
	return errors.As(err, &api) && (api.Status == http.StatusTooManyRequests || api.Status == http.StatusServiceUnavailable)
}

// failErr counts n failed operations, and a refusal among them.
func (r *recorder) failErr(n int, what string, err error) {
	if refused(err) {
		r.mu.Lock()
		r.refused++
		r.mu.Unlock()
	}
	r.fail(n, "%s: %v", what, err)
}

// putGraph uploads g as RGB1 under name and returns the round-trip time.
func putGraph(ctx context.Context, api *httpapi.Client, name string, g *graph.Graph) (time.Duration, error) {
	var buf bytes.Buffer
	if err := graph.EncodeBinary(&buf, g); err != nil {
		return 0, err
	}
	t0 := time.Now()
	_, _, err := api.PutGraphBinary(ctx, name, buf.Bytes())
	return time.Since(t0), err
}

// batchCall is one closed-loop batch request.
type batchCall struct {
	api *httpapi.Client
	req httpapi.BatchRequest
	// id names the request in spans.
	id string
	// cells is how many cells the request expands to.
	cells int
	// graphKey maps a cell's graph name to the workload's graph table.
	graphKey func(name string) string
	// jobView, when non-nil, reads a cell's job from the serving service
	// (traced runs of the single-node workload).
	jobView func(id string) (service.JobView, bool)
}

// runBatch submits one batch, streams it to the last cell and records the
// batch and its cells. It returns the cells it recorded.
func runBatch(ctx context.Context, b batchCall, rec *recorder, tr *tracer) []cellOut {
	bs := tr.begin("batch", b.id, 0)
	defer bs.end()
	rec.attempt(b.cells)
	t0 := time.Now()
	ss := tr.begin("httpapi.Client.SubmitBatch", b.id, bs.id())
	resp, err := b.api.SubmitBatch(ctx, b.req)
	ss.end()
	if err != nil {
		rec.failErr(b.cells, "submit "+b.id, err)
		return nil
	}
	if tr != nil {
		rec.sample("submit_ms", ms(time.Since(t0)))
	}
	var cells []cellOut
	var first time.Duration
	bad := 0
	st := tr.begin("httpapi.Client.StreamBatch", resp.ID, bs.id())
	_, err = b.api.StreamBatch(ctx, resp.ID, 0, func(cv httpapi.BatchCellView) error {
		now := time.Now()
		if first == 0 {
			first = now.Sub(t0)
		}
		if cv.State != string(service.Done) || cv.Result == nil || cv.Params == nil {
			bad++
			rec.fail(1, "%s cell %d: state %s: %s", b.id, cv.Index, cv.State, cv.Error)
			return nil
		}
		c := cellOut{
			graph: b.graphKey(cv.Graph), algo: cv.Algo, seed: cv.Params.Seed,
			latency: now.Sub(t0), cacheHit: cv.CacheHit, out: outputOf(cv.Result),
		}
		cells = append(cells, c)
		if b.jobView == nil || c.cacheHit {
			return nil
		}
		if jv, ok := b.jobView(cv.JobID); ok && !jv.FinishedAt.IsZero() {
			rec.sample("service.queue_wait_ms", ms(jv.StartedAt.Sub(jv.SubmittedAt)))
			rec.sample("service.run_ms", ms(jv.FinishedAt.Sub(jv.StartedAt)))
			rec.sample("httpapi.deliver_lag_ms", ms(now.Sub(jv.FinishedAt)))
			tr.record("service.queue", cv.JobID, st.id(), jv.SubmittedAt, jv.StartedAt)
			tr.record("service.run", cv.JobID, st.id(), jv.StartedAt, jv.FinishedAt)
		}
		return nil
	})
	st.end()
	if missing := b.cells - len(cells) - bad; err != nil {
		rec.failErr(missing, "stream "+b.id, err)
	} else if missing > 0 {
		rec.fail(missing, "%s: stream ended after %d of %d cells", b.id, len(cells)+bad, b.cells)
	}
	rec.addBatch(batchOut{first: first, total: time.Since(t0)}, cells)
	return cells
}

// outputOf converts a served result.
func outputOf(r *httpapi.JobResult) output {
	o := output{inSet: r.InSet, edges: r.Edges, weight: r.Weight, size: r.Size, cost: r.Cost}
	if r.Trace != nil {
		o.memoHits, o.memoMisses = r.Trace.MemoHits, r.Trace.MemoMisses
	}
	return o
}

// sumCounts adds up the exact counts of cells.
func sumCounts(cells []cellOut) counts {
	var c counts
	for _, cell := range cells {
		c.add(cell.out)
	}
	return c
}

// warmBatches is how many batches each client sends while setting up, all
// clients at once as under load, so the timed window starts warm.
const warmBatches = 4

// warmUp runs warmBatches batches per client concurrently and returns each
// client's cells. next builds client c's b-th batch; calls to it are
// serialized.
func warmUp(ctx context.Context, clients int, next func(c, b int) batchCall, tr *tracer) ([][]cellOut, error) {
	var (
		mu    sync.Mutex
		wg    sync.WaitGroup
		cells = make([][]cellOut, clients)
		err   error
	)
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := range warmBatches {
				mu.Lock()
				call := next(c, b)
				mu.Unlock()
				rec := newRecorder()
				got := runBatch(ctx, call, rec, tr)
				mu.Lock()
				if rec.failed > 0 || len(got) != call.cells {
					err = fmt.Errorf("warm-up batch %s delivered %d of %d cells", call.id, len(got), call.cells)
				}
				cells[c] = append(cells[c], got...)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return cells, err
}
