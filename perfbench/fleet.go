package main

import (
	"context"
	"fmt"
	"net/http"
	"slices"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/httpapi"
	"repro/internal/registry"
	"repro/internal/service"
	"repro/internal/store"
)

// fleetWorkers is the number of in-process workers behind the coordinator.
const fleetWorkers = 3

// fleetClients is the number of closed-loop clients.
const fleetClients = 2

// fleetGraphs is how many tiny graphs the fleet stores: gnp with n=16–20,
// p=0.2, weights up to 64, small enough for internal/exact. Each batch
// sweeps the next pair, so a run averages over graph shapes and over
// which worker owns each graph.
const fleetGraphs = 32

// fleetAlgos are the algorithms of every fleet batch.
var fleetAlgos = []string{"maxis", "mwm2"}

// fleetWorkload runs three single-node workers and a cluster.Coordinator
// (default grouped dispatch, no hedging) behind httpapi.NewClusterHandler.
type fleetWorkload struct {
	seed  uint64
	seeds int // seeds per batch

	workers  []*server
	services []*service.Service
	coord    *cluster.Coordinator
	front    *server
	wire     *countingTransport
	api      *httpapi.Client
	graphs   map[string]*graph.Graph
	nextSeed uint64
	nextPair int
	batches  int
	warm     map[string]counts
	setupPut []float64 // traced set-up upload times, ms
}

func (w *fleetWorkload) setUp(tr *tracer) error {
	root := tr.begin("setup", "fleet", 0)
	defer root.end()
	urls := make([]string, fleetWorkers)
	for i := range urls {
		svc := service.New(service.Config{})
		st := store.New(store.Config{})
		srv, err := startServer(httpapi.NewHandler(svc, st, service.NewBatches(svc, st, service.BatchConfig{})))
		if err != nil {
			svc.Close()
			return err
		}
		w.services = append(w.services, svc)
		w.workers = append(w.workers, srv)
		urls[i] = srv.url
	}
	var err error
	if w.coord, err = cluster.New(cluster.Config{Workers: urls}); err != nil {
		return err
	}
	if w.front, err = startServer(httpapi.NewClusterHandler(w.coord)); err != nil {
		return err
	}
	w.wire = newCountingTransport()
	w.api = httpapi.NewClient(w.front.url, &http.Client{Transport: w.wire})
	w.graphs = make(map[string]*graph.Graph)
	w.setupPut = nil
	w.nextSeed, w.nextPair = 1, 0
	gen, _ := registry.GetGenerator("gnp")
	ctx := context.Background()
	for i := range fleetGraphs {
		name := fmt.Sprintf("f%d", i)
		g, err := gen.Build(registry.GenParams{N: 16 + i%5, P: 0.2, Seed: w.seed*1000 + uint64(i), MaxW: 64})
		if err != nil {
			return err
		}
		w.graphs[name] = g
		sp := tr.begin("store.PutGraph", name, root.id())
		d, err := putGraph(ctx, w.api, name, g)
		sp.end()
		if err != nil {
			return fmt.Errorf("upload %s: %w", name, err)
		}
		if tr != nil {
			w.setupPut = append(w.setupPut, ms(d))
		}
	}
	// The warm-up's counts, groups dispatched included, are exact for the
	// seed.
	groups0 := w.coord.Metrics().GroupsDispatched
	cells, err := warmUp(ctx, fleetClients, func(c, b int) batchCall {
		return w.call(fmt.Sprintf("warmup-%d-%d", c, b))
	}, tr)
	if err != nil {
		return err
	}
	c := sumCounts(slices.Concat(cells...))
	c.Groups = w.coord.Metrics().GroupsDispatched - groups0
	w.warm = map[string]counts{"batches": c}
	return nil
}

// call builds the next 64-cell seed-sweep batch: the next pair of graphs ×
// both algorithms × seeds never used before.
func (w *fleetWorkload) call(id string) batchCall {
	seeds := make([]uint64, w.seeds)
	for i := range seeds {
		seeds[i] = w.nextSeed
		w.nextSeed++
	}
	pair := 2 * (w.nextPair % (fleetGraphs / 2))
	w.nextPair++
	names := []string{fmt.Sprintf("f%d", pair), fmt.Sprintf("f%d", pair+1)}
	return batchCall{
		api:      w.api,
		req:      httpapi.BatchRequest{Graphs: names, Algos: fleetAlgos, Seeds: seeds},
		id:       id,
		cells:    len(names) * len(fleetAlgos) * len(seeds),
		graphKey: func(name string) string { return name },
	}
}

func (w *fleetWorkload) setUpCounts() map[string]counts { return w.warm }

func (w *fleetWorkload) tearDown() {
	if w.front != nil {
		w.front.stop()
		w.front = nil
	}
	if w.coord != nil {
		w.coord.Close()
		w.coord = nil
	}
	for _, s := range w.workers {
		s.stop()
	}
	for _, s := range w.services {
		s.Close()
	}
	w.workers, w.services = nil, nil
	if w.wire != nil {
		w.wire.base.CloseIdleConnections()
	}
}

// run drives the closed-loop clients until the deadline.
func (w *fleetWorkload) run(deadline time.Time, rec *recorder, tr *tracer) {
	var m0 httpapi.ClusterMetrics
	if tr != nil {
		m0 = w.coord.Metrics()
	}
	bytes0 := w.wire.bytes.Load()
	ctx := context.Background()
	var mu sync.Mutex // guards the seed counter and batch numbering
	var wg sync.WaitGroup
	for range fleetClients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				mu.Lock()
				w.batches++
				call := w.call(fmt.Sprintf("fleet-%d", w.batches))
				mu.Unlock()
				runBatch(ctx, call, rec, tr)
			}
		}()
	}
	wg.Wait()
	rec.sample("wire_bytes", float64(w.wire.bytes.Load()-bytes0))
	if tr != nil {
		m1 := w.coord.Metrics()
		rec.sample("cluster.groups", float64(m1.GroupsDispatched-m0.GroupsDispatched))
		rec.sample("cluster.wire_bytes", float64(m1.WireBytesTotal-m0.WireBytesTotal))
		rec.sample("cluster.retries", float64(m1.CellRetries-m0.CellRetries))
		rec.sample("cluster.hedges_fired", float64(m1.HedgesFired-m0.HedgesFired))
	}
}

func (w *fleetWorkload) layerMetrics(rec *recorder, r *report) {
	one := func(name string) float64 {
		if xs := rec.samples[name]; len(xs) > 0 {
			return xs[0]
		}
		return 0
	}
	if b := len(rec.batches); b > 0 {
		r.add("cluster.groups_per_batch", one("cluster.groups")/float64(b), "count", b)
	}
	if n := rec.ncells; n > 0 {
		r.add("cluster.wire_bytes_per_cell", one("cluster.wire_bytes")/float64(n), "B", n)
	}
	r.add("cluster.retries", one("cluster.retries"), "count", 1)
	r.add("cluster.hedges_fired", one("cluster.hedges_fired"), "count", 1)
	r.timing("cluster.submit_ms", rec.samples["submit_ms"], "ms")
	r.timing("httpapi.submit_ms", rec.samples["submit_ms"], "ms")
	r.timing("store.put_ms", w.setupPut, "ms")
	servedLayerMetrics(rec, r)
}

// check compares every cell with repro.Run and, the graphs being tiny,
// every answer's weight with the exact optimum.
func (w *fleetWorkload) check(rec *recorder) []string {
	type key struct{ graph, kind string }
	opt := map[key]int64{}
	optimum := func(graph, kind string) (int64, bool) {
		k := key{graph, kind}
		if v, ok := opt[k]; ok {
			return v, true
		}
		v, ok := exactOptimum(w.graphs[graph], kind)
		if ok {
			opt[k] = v
		}
		return v, ok
	}
	return checkServed(rec, w.graphs, optimum)
}

// windowCounts has nothing to add: each cell's counts are checked against
// repro.Run, and the warm-up's against counts.json.
func (w *fleetWorkload) windowCounts(*recorder) (map[string]counts, []string) { return nil, nil }
