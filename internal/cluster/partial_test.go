package cluster

import (
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/httpapi"
	"repro/internal/registry"
	"repro/internal/service"
	"repro/internal/store"
	"repro/internal/sweep"
)

// TestPartialStreamRetry: a worker that dies after streaming part of a unit
// costs only the unit's unfinished cells. They alone are re-dispatched, the
// cells already settled keep their first result, the merged batch matches a
// single-node run, and the six §5 experiments still render byte-identical
// CSVs through a fleet whose worker is cut mid-stream, with no pin leaked.
func TestPartialStreamRetry(t *testing.T) {
	// "halfpark" is maxis, except that seeds above 4 park until released:
	// the owner's stream (index order) delivers exactly cells 0..3 before
	// the kill.
	maxis, _ := registry.Get("maxis")
	gate := make(chan struct{})
	var once sync.Once
	release := func() { once.Do(func() { close(gate) }) }
	unregister := registry.Register("halfpark", registry.IS, func(g *graph.Graph, p registry.Params) (*registry.Result, error) {
		if p.Seed > 4 {
			<-gate
		}
		return maxis.Run(g, p)
	})
	// Same parameter set as maxis, so the seed is part of its cache key.
	parked, _ := registry.Get("halfpark")
	parked.Params = maxis.Params
	coord, workers := newFleet(t, 2, func(cfg *Config) { cfg.GroupSize = 8 })
	// Registered after the fleet so this cleanup runs first and no parked
	// run outlives the workers' Close.
	t.Cleanup(func() {
		release()
		unregister()
	})

	graphs := []namedSource{{"part-g", gnpSource(60, 0.1, 91, 32)}}
	spec := service.BatchSpec{
		Graphs: []string{"part-g"},
		Algos:  []string{"halfpark"},
		Seeds:  []uint64{1, 2, 3, 4, 5, 6, 7, 8},
	}
	info := putGen(t, coord, "part-g", graphs[0].src)
	owner := coord.owner(info.Fingerprint)
	victim := findWorker(t, workers, owner.url)

	v, err := coord.SubmitBatch(spec)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		cur, _ := coord.GetBatch(v.ID)
		if cur.Done == 4 {
			break
		}
		if cur.Done > 4 || cur.State.Terminal() || time.Now().After(deadline) {
			t.Fatalf("batch reached %+v, want exactly 4 cells streamed", cur)
		}
		time.Sleep(time.Millisecond)
	}
	// The worker dies mid-stream: the connection drops and it never answers
	// again.
	victim.proxy.set(faultKill)
	victim.ts.CloseClientConnections()
	for coord.groupsDispatched.Load() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("the unfinished cells were never re-dispatched")
		}
		time.Sleep(time.Millisecond)
	}
	release()

	fin := waitBatch(t, coord, v.ID)
	if fin.State != service.BatchDone || fin.Done != fin.Total || fin.Failed != 0 {
		t.Fatalf("batch after the cut: %+v", fin)
	}
	if got, want := coord.cellsDispatched.Load(), uint64(fin.Total+4); got != want {
		t.Fatalf("cells dispatched %d, want %d (total + the 4 unfinished)", got, want)
	}
	if n := coord.cellRetries.Load(); n != 4 {
		t.Fatalf("cell retries %d, want 4", n)
	}
	// First result kept: the streamed cells name the victim's batch, the
	// retried ones the survivor's.
	for _, cell := range fin.Cells {
		ran := strings.HasPrefix(cell.JobID, fmt.Sprintf("w%d:", owner.id))
		if ran != (cell.Index < 4) {
			t.Fatalf("cell %d kept the result of %s", cell.Index, cell.JobID)
		}
	}
	assertSameOutcomes(t, singleNodeRun(t, graphs, spec), fin)
	if err := coord.DeleteGraph("part-g"); err != nil {
		t.Fatalf("delete after partial retry: %v", err)
	}

	// The six experiments through a fleet that loses a worker mid-stream.
	svc := service.New(service.Config{})
	t.Cleanup(svc.Close)
	st := store.New(store.Config{MaxGraphs: 1024})
	single := httptest.NewServer(httpapi.NewHandler(svc, st, service.NewBatches(svc, st, service.BatchConfig{})))
	t.Cleanup(single.Close)
	cut, cutWorkers := newFleet(t, 3, func(cfg *Config) { cfg.MaxGraphs = 1024 })
	cutWorkers[0].proxy.set(faultCut)
	cl := httptest.NewServer(httpapi.NewClusterHandler(cut))
	t.Cleanup(cl.Close)
	for _, exp := range sweep.Experiments() {
		want := runSweep(t, httpapi.NewClient(single.URL, nil), exp, 1)
		got := runSweep(t, httpapi.NewClient(cl.URL, nil), exp, 1)
		if string(want) != string(got) {
			t.Errorf("%s: CSV after a mid-stream cut differs from single-node\nsingle:\n%s\ncut:\n%s", exp, want, got)
		}
	}
	if cut.workerFailures.Load() == 0 {
		t.Fatal("no stream was cut; the fault was not exercised")
	}
	if left := cut.ListGraphs(); len(left) != 0 {
		t.Fatalf("%d graphs left behind after the sweeps", len(left))
	}
}
