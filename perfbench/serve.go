package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/graph"
	"repro/internal/httpapi"
	"repro/internal/registry"
	"repro/internal/service"
	"repro/internal/store"
	"repro/internal/tenant"
)

// serveAlgos are the algorithms of every serve batch, in cell order.
var serveAlgos = []string{"maxis", "mwm2", "maxis-det", "fastmwm"}

// serveTenants are the two equal-weight tenants, one closed-loop client each.
var serveTenants = []string{"alpha", "beta"}

// serveWorkload is a single-node server (httpapi.NewHandler over a service,
// store and batch engine) in multi-tenant mode on a loopback listener.
type serveWorkload struct {
	seed   uint64
	graphs int // stored graphs per tenant
	seeds  int // fresh seeds per batch
	dir    string

	svc     *service.Service
	srv     *server
	wire    *countingTransport
	clients []*serveClient
	// table holds every graph generated by this set-up, deleted ones
	// included, keyed "<tenant>/<name>"; mu guards it while both clients
	// run.
	mu       sync.Mutex
	table    map[string]*graph.Graph
	warm     map[string]counts
	setupPut []float64 // traced set-up upload times, ms
}

// serveClient is one tenant's closed-loop client and its graph window.
type serveClient struct {
	tenant   string
	index    int
	api      *httpapi.Client
	live     []string // stored graph names, oldest first
	made     int      // graphs generated so far
	nextSeed uint64
	iter     int
	prev     *httpapi.BatchRequest
}

func (w *serveWorkload) setUp(tr *tracer) error {
	root := tr.begin("setup", "serve", 0)
	defer root.end()
	kr, keys, err := w.keyring()
	if err != nil {
		return err
	}
	w.svc = service.New(service.Config{TenantLimits: func(id string) service.TenantLimits {
		t, ok := kr.ByID(id)
		if !ok {
			return service.TenantLimits{}
		}
		return service.TenantLimits{Weight: t.Weight, MaxRunning: t.MaxCells, QueueSize: t.QueueSize}
	}})
	st := store.New(store.Config{})
	batches := service.NewBatches(w.svc, st, service.BatchConfig{})
	if w.srv, err = startServer(httpapi.NewHandler(w.svc, st, batches, httpapi.WithKeyring(kr))); err != nil {
		return err
	}
	w.wire = newCountingTransport()
	w.table = make(map[string]*graph.Graph)
	w.warm = make(map[string]counts)
	w.setupPut = nil
	hc := &http.Client{Transport: w.wire}
	ctx := context.Background()
	w.clients = nil
	for i, t := range serveTenants {
		c := &serveClient{
			tenant:   t,
			index:    i,
			api:      httpapi.NewClient(w.srv.url, hc).WithAPIKey(keys[i]),
			nextSeed: uint64(i+1) * 1_000_000,
		}
		w.clients = append(w.clients, c)
		for range w.graphs {
			sp := tr.begin("store.PutGraph", t, root.id())
			d, err := w.addGraph(ctx, c)
			sp.end()
			if err != nil {
				return err
			}
			if tr != nil {
				w.setupPut = append(w.setupPut, ms(d))
			}
		}
	}
	cells, err := warmUp(ctx, len(w.clients), func(i, b int) batchCall {
		c := w.clients[i]
		c.iter = b
		return w.call(c, w.fresh(c), nil)
	}, tr)
	if err != nil {
		return err
	}
	for i, c := range w.clients {
		c.iter = 0
		w.warm[c.tenant] = sumCounts(cells[i])
	}
	return nil
}

// keyring writes a two-tenant key file under the output directory, loads it
// and removes the file again; it returns the keyring and the raw keys.
func (w *serveWorkload) keyring() (*tenant.Keyring, []string, error) {
	f, err := os.CreateTemp(w.dir, "keys-*")
	if err != nil {
		return nil, nil, err
	}
	path := f.Name()
	defer os.Remove(path)
	var keys []string
	for _, t := range serveTenants {
		key := "perfbench-" + t
		keys = append(keys, key)
		fmt.Fprintf(f, "%s %s weight=1\n", t, tenant.HashKey(key))
	}
	if err := f.Close(); err != nil {
		return nil, nil, err
	}
	kr, err := tenant.Load(filepath.Clean(path))
	return kr, keys, err
}

// addGraph generates the client's next graph, uploads it as RGB1 and
// returns the upload time. Graphs are gnp-sparse with deg≈8; their sizes
// cycle through 64, 80, …, 128 nodes so every seed sees the same size mix.
func (w *serveWorkload) addGraph(ctx context.Context, c *serveClient) (time.Duration, error) {
	gen, _ := registry.GetGenerator("gnp-sparse")
	seed := w.seed*1_000_003 + uint64(c.index)*10_000 + uint64(c.made)
	n := 64 + 16*((c.made+2*c.index)%5)
	g, err := gen.Build(registry.GenParams{N: n, P: 8 / float64(n-1), Seed: seed, MaxW: 256})
	if err != nil {
		return 0, err
	}
	name := fmt.Sprintf("g%d", c.made)
	c.made++
	w.mu.Lock()
	w.table[c.tenant+"/"+name] = g
	w.mu.Unlock()
	d, err := putGraph(ctx, c.api, name, g)
	if err != nil {
		return d, fmt.Errorf("upload %s/%s: %w", c.tenant, name, err)
	}
	c.live = append(c.live, name)
	return d, nil
}

// fresh builds the client's next batch: its next live graph, every serve
// algorithm, and seeds it has not used before.
func (w *serveWorkload) fresh(c *serveClient) httpapi.BatchRequest {
	seeds := make([]uint64, w.seeds)
	for i := range seeds {
		seeds[i] = c.nextSeed
		c.nextSeed++
	}
	return httpapi.BatchRequest{
		Graphs: []string{c.live[c.iter%len(c.live)]},
		Algos:  serveAlgos,
		Seeds:  seeds,
	}
}

func (w *serveWorkload) call(c *serveClient, req httpapi.BatchRequest, jobView func(string) (service.JobView, bool)) batchCall {
	return batchCall{
		api: c.api, req: req, id: fmt.Sprintf("%s-%d", c.tenant, c.iter),
		cells:    len(req.Graphs) * len(req.Algos) * len(req.Seeds),
		graphKey: func(name string) string { return c.tenant + "/" + name },
		jobView:  jobView,
	}
}

func (w *serveWorkload) setUpCounts() map[string]counts { return w.warm }

func (w *serveWorkload) tearDown() {
	if w.srv != nil {
		w.srv.stop()
		w.srv = nil
	}
	if w.svc != nil {
		w.svc.Close()
		w.svc = nil
	}
	if w.wire != nil {
		w.wire.base.CloseIdleConnections()
	}
}

// run drives one closed-loop client per tenant. Every 4th batch resubmits
// the client's previous batch verbatim (served from the result cache);
// every 8th iteration uploads a new graph and deletes the oldest.
func (w *serveWorkload) run(deadline time.Time, rec *recorder, tr *tracer) {
	var jobView func(string) (service.JobView, bool)
	if tr != nil {
		jobView = w.svc.Get
	}
	bytes0 := w.wire.bytes.Load()
	ctx := context.Background()
	var wg sync.WaitGroup
	for _, c := range w.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				c.iter++
				var req httpapi.BatchRequest
				if c.iter%4 == 0 && c.prev != nil {
					req = *c.prev
				} else {
					req = w.fresh(c)
				}
				c.prev = &req
				runBatch(ctx, w.call(c, req, jobView), rec, tr)
				if c.iter%8 == 0 {
					w.swapGraph(ctx, c, rec, tr)
				}
			}
		}()
	}
	wg.Wait()
	rec.sample("wire_bytes", float64(w.wire.bytes.Load()-bytes0))
}

// swapGraph uploads the client's next graph and then deletes its oldest,
// so the client always keeps the same number of graphs.
func (w *serveWorkload) swapGraph(ctx context.Context, c *serveClient, rec *recorder, tr *tracer) {
	rec.attempt(2)
	sp := tr.begin("store.PutGraph", c.tenant, 0)
	d, err := w.addGraph(ctx, c)
	sp.end()
	if err != nil {
		rec.failErr(2, "put", err)
		return
	}
	if tr != nil {
		rec.sample("store.put_ms", ms(d))
	}
	oldest := c.live[0]
	sp = tr.begin("store.DeleteGraph", c.tenant+"/"+oldest, 0)
	err = c.api.DeleteGraph(ctx, oldest)
	sp.end()
	if err != nil {
		rec.failErr(1, "delete "+c.tenant+"/"+oldest, err)
		return
	}
	c.live = c.live[1:]
}

func (w *serveWorkload) layerMetrics(rec *recorder, r *report) {
	r.timing("service.queue_wait_ms", rec.samples["service.queue_wait_ms"], "ms")
	r.timing("service.run_ms", rec.samples["service.run_ms"], "ms")
	r.timing("httpapi.deliver_lag_ms", rec.samples["httpapi.deliver_lag_ms"], "ms")
	r.timing("httpapi.submit_ms", rec.samples["submit_ms"], "ms")
	r.timing("store.put_ms", append(rec.samples["store.put_ms"], w.setupPut...), "ms")
	servedLayerMetrics(rec, r)
}

// servedLayerMetrics adds the per-layer metrics both served workloads share.
func servedLayerMetrics(rec *recorder, r *report) {
	hits := 0
	for c := range rec.allCells() {
		if c.cacheHit {
			hits++
		}
	}
	if n := rec.ncells; n > 0 {
		r.add("service.cache_hit_ratio", float64(hits)/float64(n), "ratio", n)
		if b := rec.samples["wire_bytes"]; len(b) > 0 {
			r.add("httpapi.wire_bytes_per_cell", b[0]/float64(n), "B", n)
		}
	}
	r.add("service.refused", float64(rec.refused), "count", rec.attempted)
	addMemoRatio(r, rec)
}

func (w *serveWorkload) check(rec *recorder) []string {
	return checkServed(rec, w.table, nil)
}

// windowCounts has nothing to add: which cells a timed window reaches
// depends on timing, and each cell's counts are checked against repro.Run.
func (w *serveWorkload) windowCounts(*recorder) (map[string]counts, []string) { return nil, nil }
