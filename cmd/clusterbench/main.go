// Command clusterbench measures the cluster fast path: it spins up an
// in-process fleet of real single-node reprod workers (each behind its own
// httptest server, exactly as internal/cluster's harness does), runs the
// same 256-cell seed-sweep batch through a coordinator twice — once with
// grouped dispatch (the default: units of 16 seeds, each one worker batch
// streamed back over the binary result stream) and once with GroupSize 1,
// one cell per dispatch on the same streamed path — and reports end-to-end
// cells/sec for both, plus their ratio. Each mode gets a fresh fleet so
// result caches cannot skew the comparison.
//
// With -json the measurements are written as a machine-readable perf record
// (BENCH_cluster_<date>.json by default). With -compare <file> the fresh
// speedup is diffed against a previous record and the process exits non-zero
// when it regressed by more than -threshold percent. The speedup ratio — not
// raw cells/sec — is the gated quantity: it is a property of the dispatch
// path, largely independent of the runner's absolute speed, which is what
// makes it CI-enforceable where wall-clock is not.
//
// Usage:
//
//	clusterbench [-workers n] [-seeds k] [-json] [-out file]
//	             [-compare BENCH_cluster_baseline.json] [-threshold pct]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http/httptest"
	"os"
	"runtime"
	"time"

	"repro/internal/cluster"
	"repro/internal/httpapi"
	"repro/internal/registry"
	"repro/internal/service"
	"repro/internal/store"
)

// record is the -json perf document.
type record struct {
	Date      string  `json:"date"`
	GoVersion string  `json:"go"`
	GOMAXPROC int     `json:"gomaxprocs"`
	Workers   int     `json:"workers"`
	Cells     int     `json:"cells"`
	GroupedCS float64 `json:"grouped_cells_per_sec"`
	OneCellCS float64 `json:"onecell_cells_per_sec"`
	Speedup   float64 `json:"speedup"`
}

// fleet is one disposable in-process cluster: n workers plus a coordinator.
type fleet struct {
	coord   *cluster.Coordinator
	cleanup []func()
}

func (f *fleet) close() {
	f.coord.Close()
	for _, fn := range f.cleanup {
		fn()
	}
}

// newFleet builds the fleet; groupSize 0 selects the coordinator default.
func newFleet(n, groupSize int) (*fleet, error) {
	f := &fleet{}
	urls := make([]string, n)
	for i := range urls {
		svc := service.New(service.Config{Workers: 2, QueueSize: 1024})
		st := store.New(store.Config{})
		batches := service.NewBatches(svc, st, service.BatchConfig{})
		ts := httptest.NewServer(httpapi.NewHandler(svc, st, batches))
		urls[i] = ts.URL
		f.cleanup = append(f.cleanup, ts.Close, svc.Close)
	}
	coord, err := cluster.New(cluster.Config{
		Workers:        urls,
		Window:         4,
		RequestTimeout: 30 * time.Second,
		GroupSize:      groupSize,
	})
	if err != nil {
		f.close()
		return nil, err
	}
	f.coord = coord
	return f, nil
}

// bestOf runs each group size reps times, interleaved so a slow spell on a
// shared machine hits every mode alike, and keeps each mode's fastest run.
// Throughput here is noisy in one direction — scheduler and GC hiccups only
// ever slow a run down — so the max is the cleanest estimate of what the
// dispatch path can do, and the one stable enough to gate CI on.
func bestOf(reps, workers, seeds int, groupSizes ...int) ([]float64, int, error) {
	best := make([]float64, len(groupSizes))
	var cells int
	for r := 0; r < reps; r++ {
		for i, gs := range groupSizes {
			cs, n, err := runBatch(workers, seeds, gs)
			if err != nil {
				return nil, 0, fmt.Errorf("group size %d: %w", gs, err)
			}
			best[i] = max(best[i], cs)
			cells = n
		}
	}
	return best, cells, nil
}

// runBatch executes the benchmark workload — 2 graphs × 2 algorithms × seeds
// seed-sweep cells — on a fresh fleet and returns cells/sec.
func runBatch(workers, seeds, groupSize int) (float64, int, error) {
	f, err := newFleet(workers, groupSize)
	if err != nil {
		return 0, 0, err
	}
	defer f.close()

	for i, name := range []string{"cb-a", "cb-b"} {
		src := store.Source{Gen: "gnp", GenParams: registry.GenParams{
			N: 16 + 8*i, P: 0.2, Seed: uint64(40 + i), MaxW: 64,
		}}
		if _, _, err := f.coord.PutGraph(name, src); err != nil {
			return 0, 0, err
		}
	}
	seedList := make([]uint64, seeds)
	for i := range seedList {
		seedList[i] = uint64(i + 1)
	}
	spec := service.BatchSpec{
		Graphs: []string{"cb-a", "cb-b"},
		Algos:  []string{"maxis", "mwm2"},
		Seeds:  seedList,
	}

	start := time.Now()
	v, err := f.coord.SubmitBatch(spec)
	if err != nil {
		return 0, 0, err
	}
	for {
		cur, ok := f.coord.WaitBatch(v.ID, 10*time.Second)
		if !ok {
			return 0, 0, fmt.Errorf("batch %s vanished", v.ID)
		}
		if cur.State.Terminal() {
			if cur.Done != cur.Total {
				return 0, 0, fmt.Errorf("batch %s: %d/%d done, %d failed (%s)",
					v.ID, cur.Done, cur.Total, cur.Failed, firstError(cur))
			}
			elapsed := time.Since(start)
			return float64(cur.Total) / elapsed.Seconds(), cur.Total, nil
		}
	}
}

func firstError(v service.BatchView) string {
	for _, c := range v.Cells {
		if c.Error != "" {
			return c.Error
		}
	}
	return "no cell error"
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("clusterbench: ")
	workers := flag.Int("workers", 3, "in-process workers in the fleet")
	seeds := flag.Int("seeds", 64, "seeds per (graph, algo) axis — cells = 4×seeds")
	reps := flag.Int("reps", 3, "runs per mode; the fastest is reported")
	jsonOut := flag.Bool("json", false, "also write a BENCH_cluster_<date>.json perf record")
	outPath := flag.String("out", "", "perf record path (default BENCH_cluster_<date>.json; implies -json)")
	compare := flag.String("compare", "", "previous perf record to diff against; exit 1 on speedup regression beyond -threshold")
	threshold := flag.Float64("threshold", 20, "allowed speedup regression for -compare, in percent")
	flag.Parse()

	// Group size 0 is the coordinator default; 1 sends every cell on its own.
	best, cells, err := bestOf(*reps, *workers, *seeds, 0, 1)
	if err != nil {
		log.Fatal(err)
	}
	grouped, oneCell := best[0], best[1]
	speedup := grouped / oneCell

	fmt.Printf("cells          %d (over %d workers)\n", cells, *workers)
	fmt.Printf("grouped        %.1f cells/sec\n", grouped)
	fmt.Printf("one-cell       %.1f cells/sec\n", oneCell)
	fmt.Printf("speedup        %.2fx\n", speedup)

	rec := record{
		Date:      time.Now().Format("2006-01-02"),
		GoVersion: runtime.Version(),
		GOMAXPROC: runtime.GOMAXPROCS(0),
		Workers:   *workers,
		Cells:     cells,
		GroupedCS: grouped,
		OneCellCS: oneCell,
		Speedup:   speedup,
	}
	if *jsonOut || *outPath != "" {
		path := *outPath
		if path == "" {
			path = "BENCH_cluster_" + rec.Date + ".json"
		}
		buf, err := json.MarshalIndent(rec, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
			log.Fatal(err)
		}
		log.Printf("wrote %s", path)
	}
	if *compare != "" {
		buf, err := os.ReadFile(*compare)
		if err != nil {
			log.Fatal(err)
		}
		var base record
		if err := json.Unmarshal(buf, &base); err != nil {
			log.Fatalf("parsing %s: %v", *compare, err)
		}
		delta := 100 * (speedup - base.Speedup) / base.Speedup
		fmt.Printf("baseline       %.2fx (%s), delta %+.1f%%\n", base.Speedup, base.Date, delta)
		if delta < -*threshold {
			log.Fatalf("speedup regressed %.1f%% (threshold %.0f%%): %.2fx -> %.2fx",
				-delta, *threshold, base.Speedup, speedup)
		}
	}
}
