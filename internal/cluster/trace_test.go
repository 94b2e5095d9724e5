package cluster

import (
	"bytes"
	"context"
	"log/slog"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/httpapi"
	"repro/internal/obs"
	"repro/internal/service"
)

// syncBuffer makes a bytes.Buffer safe as an slog sink: the coordinator logs
// from many goroutines concurrently.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestTraceSurvivesRetry is the trace-propagation acceptance scenario: one
// caller-chosen trace ID must be visible at every hop — the batch view, each
// cell's derived child ID, the worker-side batch cell that actually ran it,
// and the coordinator's span-event log — even when a worker dies mid-batch
// and units are retried onto new hosts.
func TestTraceSurvivesRetry(t *testing.T) {
	const trace = "feedface00c0ffee"
	graphs := []namedSource{
		{"tr-a", gnpSource(500, 0.015, 41, 64)},
		{"tr-b", gnpSource(520, 0.014, 42, 64)},
	}
	spec := service.BatchSpec{
		Graphs:  []string{"tr-a", "tr-b"},
		Algos:   []string{"maxis"},
		Seeds:   []uint64{1, 2, 3, 4, 5, 6},
		TraceID: trace,
	}

	logs := &syncBuffer{}
	coord, workers := newFleet(t, 3, func(cfg *Config) {
		cfg.Logger = slog.New(slog.NewTextHandler(logs, nil))
		// Small groups so the batch finishes cell-by-cell: the kill must land
		// while the victim still has undispatched groups to retry.
		cfg.GroupSize = 2
	})
	for _, g := range graphs {
		putGen(t, coord, g.name, g.src)
	}
	v, err := coord.SubmitBatch(spec)
	if err != nil {
		t.Fatal(err)
	}
	if v.TraceID != trace {
		t.Fatalf("submit view trace %q, want %q", v.TraceID, trace)
	}

	// Let the batch make progress, then kill the worker owning the first
	// graph so its remaining cells retry onto the survivors.
	deadline := time.Now().Add(60 * time.Second)
	for {
		cur, _ := coord.GetBatch(v.ID)
		if cur.Done >= 1 {
			break
		}
		if cur.State.Terminal() || time.Now().After(deadline) {
			t.Fatalf("batch reached %+v before any cell completed", cur)
		}
		time.Sleep(time.Millisecond)
	}
	info, _ := coord.GetGraph("tr-a")
	victim := coord.owner(info.Fingerprint)
	if victim == nil {
		t.Fatal("no owner for tr-a")
	}
	findWorker(t, workers, victim.url).proxy.set(faultKill)

	fin := waitBatch(t, coord, v.ID)
	if fin.State != service.BatchDone || fin.Done != fin.Total {
		t.Fatalf("batch after kill: state %s done %d/%d failed %d",
			fin.State, fin.Done, fin.Total, fin.Failed)
	}
	if coord.cellRetries.Load() == 0 {
		t.Fatal("kill produced no retries; the retry hop was not exercised")
	}
	if fin.TraceID != trace {
		t.Fatalf("final view trace %q, want %q", fin.TraceID, trace)
	}

	// Every cell carries the derived child ID, and the worker-side batch
	// whose result it kept ran a cell under that exact ID. Read the worker
	// batches over HTTP with the fault cleared: the victim ran some cells
	// before it died.
	findWorker(t, workers, victim.url).proxy.set(faultOff)
	for _, cell := range fin.Cells {
		want := obs.ChildTraceID(trace, cell.Index)
		if cell.TraceID != want {
			t.Fatalf("cell %d trace %q, want %q", cell.Index, cell.TraceID, want)
		}
		wid, batchID, ok := strings.Cut(cell.JobID, ":")
		if !ok || !strings.HasPrefix(wid, "w") {
			t.Fatalf("cell %d job ref %q is not w<id>:<batchID>", cell.Index, cell.JobID)
		}
		idx, err := strconv.Atoi(wid[1:])
		if err != nil || idx < 0 || idx >= len(workers) {
			t.Fatalf("cell %d job ref %q names unknown worker", cell.Index, cell.JobID)
		}
		wv, err := httpapi.NewClient(workers[idx].ts.URL, nil).GetBatch(context.Background(), batchID, 0)
		if err != nil {
			t.Fatalf("cell %d: batch %s on worker %d: %v", cell.Index, batchID, idx, err)
		}
		found := false
		for _, wc := range wv.Cells {
			if wc.TraceID == want && wc.State == string(service.Done) {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("cell %d: no done cell of worker-side batch %s carries trace %q", cell.Index, batchID, want)
		}
	}

	// The span-event log tells the same story under the same IDs: the batch
	// was submitted under the caller's trace, and at least one retry event
	// carries a derived cell trace.
	got := logs.String()
	if !strings.Contains(got, "event=batch_submit") || !strings.Contains(got, "trace="+trace) {
		t.Fatalf("log missing batch_submit under trace %s:\n%s", trace, got)
	}
	retried := false
	for line := range strings.Lines(got) {
		if strings.Contains(line, "event=group_retry") && strings.Contains(line, "trace="+trace+".") {
			retried = true
			break
		}
	}
	if !retried {
		t.Fatalf("log has no group_retry event tagged with a child of %s:\n%s", trace, got)
	}
}

// TestLongestTraceReachesWorkers: a batch under the longest trace the front
// door accepts still runs, because the child IDs forwarded to the workers
// fit their cell-trace bound.
func TestLongestTraceReachesWorkers(t *testing.T) {
	coord, _ := newFleet(t, 2, nil)
	ts := httptest.NewServer(httpapi.NewClusterHandler(coord))
	t.Cleanup(ts.Close)
	c := httpapi.NewClient(ts.URL, nil)
	ctx := context.Background()
	if _, err := c.PutGraphGen(ctx, "long-g", httpapi.GenRequest{Gen: "gnp", N: 20, P: 0.2, Seed: 9, MaxW: 16}); err != nil {
		t.Fatal(err)
	}
	trace := strings.Repeat("f", 128)
	b, err := c.SubmitBatch(ctx, httpapi.BatchRequest{
		Graphs: []string{"long-g"}, Algos: []string{"maxis"}, Seeds: []uint64{1, 2}, TraceID: trace,
	})
	if err != nil {
		t.Fatal(err)
	}
	fin, err := c.WaitBatch(ctx, b.ID, 60*time.Second)
	if err != nil || fin.Done != fin.Total {
		t.Fatalf("batch under a %d-byte trace: %+v, %v", len(trace), fin, err)
	}
	if fin.Cells[1].TraceID != obs.ChildTraceID(trace, 1) {
		t.Fatalf("cell trace %q", fin.Cells[1].TraceID)
	}
}
