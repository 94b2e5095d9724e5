package cluster

// Fleets of journaled workers: each worker runs as `reprod -waldir` does,
// with a durable graph store and a durable batch ledger, so every dispatch
// unit the coordinator submits is journaled on its worker.

import (
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/httpapi"
	"repro/internal/registry"
	"repro/internal/service"
	"repro/internal/store"
	"repro/internal/wal"
)

// journaledStack is one worker process image over the WAL directories under
// root; a restart opens a fresh image over the same root.
type journaledStack struct {
	svc *service.Service
	st  *store.Store
	b   *service.Batches
	// ledger is the batch ledger's WAL, the handle tests Kill.
	ledger *wal.Log
}

func openJournaled(t *testing.T, root string) *journaledStack {
	t.Helper()
	st, err := store.Open(store.Config{
		WALDir:   filepath.Join(root, "store"),
		SpillDir: filepath.Join(root, "spill"),
	})
	if err != nil {
		t.Fatal(err)
	}
	js := &journaledStack{st: st, svc: service.New(service.Config{Workers: 2, QueueSize: 64})}
	js.b, err = service.OpenBatches(js.svc, st, service.BatchConfig{
		WALDir:   filepath.Join(root, "batches"),
		WALHooks: &wal.TestHooks{OnOpen: func(l *wal.Log) { js.ledger = l }},
	})
	if err != nil {
		t.Fatal(err)
	}
	return js
}

// close shuts the image down; a crashed image's dead logs keep its WAL
// exactly as the crash left it.
func (js *journaledStack) close() {
	js.svc.Close()
	js.b.Close()
	js.st.Close()
}

// newJournaledFleet is newFleet over journaled workers. It returns each
// worker's WAL root and live image beside the harness entries.
func newJournaledFleet(t *testing.T, n int, mut func(*Config)) (*Coordinator, []*testWorker, []string, []*journaledStack) {
	t.Helper()
	workers := make([]*testWorker, n)
	roots := make([]string, n)
	stacks := make([]*journaledStack, n)
	urls := make([]string, n)
	for i := range workers {
		roots[i] = t.TempDir()
		stacks[i] = openJournaled(t, roots[i])
		proxy := &faultProxy{inner: httpapi.NewHandler(stacks[i].svc, stacks[i].st, stacks[i].b), unblock: make(chan struct{})}
		ts := httptest.NewServer(proxy)
		workers[i] = &testWorker{ts: ts, svc: stacks[i].svc, st: stacks[i].st, proxy: proxy}
		urls[i] = ts.URL
		t.Cleanup(func() {
			close(proxy.unblock)
			ts.Close()
			stacks[i].close()
		})
	}
	cfg := Config{Workers: urls, Window: 2, RequestTimeout: 2 * time.Second}
	if mut != nil {
		mut(&cfg)
	}
	coord, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	return coord, workers, roots, stacks
}

// TestFailedWorkerJournalIsAWorkerFailure: a worker whose batch ledger can
// no longer commit answers the unit's submit with a 5xx. That is the
// worker's fault, not the cells': the coordinator marks it down and the
// cells run elsewhere, matching a single-node run.
func TestFailedWorkerJournalIsAWorkerFailure(t *testing.T) {
	graphs := []namedSource{{"jfail-g", gnpSource(40, 0.15, 101, 32)}}
	spec := service.BatchSpec{
		Graphs: []string{"jfail-g"},
		Algos:  []string{"maxis", "mwm2"},
		Seeds:  []uint64{1, 2, 3},
	}
	coord, workers, _, stacks := newJournaledFleet(t, 2, nil)
	info := putGen(t, coord, "jfail-g", graphs[0].src)
	owner := coord.owner(info.Fingerprint)
	stacks[owner.id].ledger.Kill()

	fin := clusterRun(t, coord, nil, spec)
	if fin.State != service.BatchDone || fin.Done != fin.Total {
		t.Fatalf("batch against a failed worker journal: %+v", fin)
	}
	assertSameOutcomes(t, singleNodeRun(t, graphs, spec), fin)
	if coord.workerFailures.Load() == 0 {
		t.Fatal("the worker with the failed journal was never marked down")
	}
	if findWorker(t, workers, owner.url).svc.Metrics().Submitted != 0 {
		t.Fatal("the worker with the failed journal ran cells")
	}
}

// TestJournaledWorkerRestartMidUnit: a journaled worker crashes after
// streaming half of a unit and restarts over its WAL. The coordinator
// re-places only the unfinished cells and keeps the streamed ones; the
// restarted worker resumes its journaled copy of the unit — work nobody
// reads, bounded by the units it held — and rejoins the fleet.
func TestJournaledWorkerRestartMidUnit(t *testing.T) {
	maxis, _ := registry.Get("maxis")
	gate := make(chan struct{})
	var once sync.Once
	release := func() { once.Do(func() { close(gate) }) }
	unregister := registry.Register("halfjournal", registry.IS, func(g *graph.Graph, p registry.Params) (*registry.Result, error) {
		if p.Seed > 4 {
			<-gate
		}
		return maxis.Run(g, p)
	})
	parked, _ := registry.Get("halfjournal")
	parked.Params = maxis.Params
	coord, workers, roots, stacks := newJournaledFleet(t, 2, func(cfg *Config) { cfg.GroupSize = 8 })
	t.Cleanup(func() {
		release()
		unregister()
	})

	graphs := []namedSource{{"jrst-g", gnpSource(60, 0.1, 111, 32)}}
	spec := service.BatchSpec{
		Graphs: []string{"jrst-g"},
		Algos:  []string{"halfjournal"},
		Seeds:  []uint64{1, 2, 3, 4, 5, 6, 7, 8},
	}
	info := putGen(t, coord, "jrst-g", graphs[0].src)
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
	// Crash: the ledger stops persisting, the connections drop, and the
	// worker answers nothing until it restarts.
	old := stacks[owner.id]
	old.ledger.Kill()
	victim.proxy.set(faultKill)
	victim.ts.CloseClientConnections()
	for coord.groupsDispatched.Load() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("the unfinished cells were never re-dispatched")
		}
		time.Sleep(time.Millisecond)
	}
	release()
	old.close()

	// Restart over the same WAL: the journaled unit resumes.
	fresh := openJournaled(t, roots[owner.id])
	t.Cleanup(fresh.close)
	if lm, _ := fresh.b.LedgerMetrics(); lm.BatchesResumed != 1 {
		t.Fatalf("restarted worker resumed %d batches, want the 1 unit it held", lm.BatchesResumed)
	}
	victim.proxy.swap(httpapi.NewHandler(fresh.svc, fresh.st, fresh.b))
	victim.svc, victim.st = fresh.svc, fresh.st
	victim.proxy.set(faultOff)

	fin := waitBatch(t, coord, v.ID)
	if fin.State != service.BatchDone || fin.Done != fin.Total || fin.Failed != 0 {
		t.Fatalf("batch after the restart: %+v", fin)
	}
	if got, want := coord.cellsDispatched.Load(), uint64(fin.Total+4); got != want {
		t.Fatalf("cells dispatched %d, want %d (total + the 4 unfinished)", got, want)
	}
	assertSameOutcomes(t, singleNodeRun(t, graphs, spec), fin)

	// The revived worker serves the next batch.
	if n := coord.Probe(); n != 2 {
		t.Fatalf("%d healthy workers after the restart, want 2", n)
	}
	next := service.BatchSpec{Graphs: []string{"jrst-g"}, Algos: []string{"maxis"}, Seeds: []uint64{9, 10}}
	again := clusterRun(t, coord, nil, next)
	if again.State != service.BatchDone || again.Done != 2 {
		t.Fatalf("batch on the revived fleet: %+v", again)
	}
	assertSameOutcomes(t, singleNodeRun(t, graphs, next), again)
	if err := coord.DeleteGraph("jrst-g"); err != nil {
		t.Fatalf("delete after the restart: %v", err)
	}
}
