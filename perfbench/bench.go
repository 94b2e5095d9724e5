package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"iter"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/registry"
)

// defaultSeed is the workload seed whose exact counts counts.json records.
const defaultSeed = 1

// setUps is how many times one run sets its workload up; setup_s is the
// median of the untraced set-ups.
const setUps = 5

// workload is one named traffic mix. A run sets it up setUps times (tearing
// each instance down before the next), then drives closed-loop load on the
// last instance and checks every output after the timed window.
type workload interface {
	// setUp generates the inputs from the workload seed, starts whatever
	// serves them and warms up. tr is non-nil on a traced set-up.
	setUp(tr *tracer) error
	// setUpCounts returns the exact counts of the last set-up's warm-up
	// (nil when the workload has none).
	setUpCounts() map[string]counts
	// run drives load until deadline, recording every output into rec.
	run(deadline time.Time, rec *recorder, tr *tracer)
	// layerMetrics adds the per-layer metrics measured during rec's
	// (traced) window to r.
	layerMetrics(rec *recorder, r *report)
	// check verifies every output in rec; each returned string is one
	// failed check.
	check(rec *recorder) []string
	// windowCounts returns exact counts observed in rec that must repeat
	// on every run with the same seed, and any disagreement inside rec.
	windowCounts(rec *recorder) (map[string]counts, []string)
	tearDown()
}

// counts are the exact, seed-determined figures of one call or warm-up:
// the quantities a count-based claim can rest on.
type counts struct {
	Rounds     int    `json:"rounds"`
	RealRounds int    `json:"real_rounds"`
	Messages   int    `json:"messages"`
	Bits       int    `json:"bits"`
	MemoHits   uint64 `json:"memo_hits"`
	MemoMisses uint64 `json:"memo_misses"`
	Groups     uint64 `json:"groups,omitempty"`
}

func (c *counts) add(o output) {
	c.Rounds += o.cost.Rounds
	c.RealRounds += o.cost.RealRounds
	c.Messages += o.cost.Messages
	c.Bits += o.cost.Bits
	c.MemoHits += o.memoHits
	c.MemoMisses += o.memoMisses
}

// output is one algorithm answer as the benchmark received it.
type output struct {
	inSet      []bool
	edges      []int
	weight     int64
	size       int
	cost       registry.Cost
	memoHits   uint64
	memoMisses uint64
}

// cellOut is one delivered cell: which (graph, algorithm, seed) it answers,
// how long after its request it arrived and what it said.
type cellOut struct {
	batch    int
	call     string // solve: the named call
	graph    string // key of the graph in the workload's table
	algo     string
	seed     uint64
	latency  time.Duration
	cacheHit bool
	out      output
}

// batchOut is one closed-loop request: its cells and the time to its
// first and its last cell.
type batchOut struct {
	first, total time.Duration
	cells        []cellOut
}

// recorder collects what one timed window delivered. Outputs are only
// stored during the window; every check runs after it.
type recorder struct {
	mu sync.Mutex
	// batches keeps the cells batch by batch, so the store grows in small
	// steps rather than by copying one ever larger array.
	batches   []batchOut
	ncells    int
	attempted int
	failed    int
	refused   int
	problems  []string
	// samples holds per-layer timings and sizes, keyed by metric name.
	samples map[string][]float64
	elapsed time.Duration
	cpu     time.Duration // process CPU time used during the window
}

func newRecorder() *recorder { return &recorder{samples: make(map[string][]float64)} }

// addBatch records a finished batch and its cells.
func (r *recorder) addBatch(b batchOut, cells []cellOut) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range cells {
		cells[i].batch = len(r.batches)
	}
	b.cells = cells
	r.batches = append(r.batches, b)
	r.ncells += len(cells)
}

// allCells iterates over every recorded cell, batch by batch.
func (r *recorder) allCells() iter.Seq[*cellOut] {
	return func(yield func(*cellOut) bool) {
		for i := range r.batches {
			for j := range r.batches[i].cells {
				if !yield(&r.batches[i].cells[j]) {
					return
				}
			}
		}
	}
}

// attempt counts n attempted operations.
func (r *recorder) attempt(n int) {
	r.mu.Lock()
	r.attempted += n
	r.mu.Unlock()
}

// fail counts n failed operations and keeps the reason.
func (r *recorder) fail(n int, format string, args ...any) {
	r.mu.Lock()
	r.failed += n
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
	r.mu.Unlock()
}

func (r *recorder) sample(name string, v float64) {
	r.mu.Lock()
	r.samples[name] = append(r.samples[name], v)
	r.mu.Unlock()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// kindOf classifies an algorithm as "is" or "matching".
func kindOf(algo string) string {
	if s, ok := registry.Get(algo); ok && s.Kind == registry.Matching {
		return "matching"
	}
	return "is"
}

// endToEnd adds the end-to-end metrics of one window to r.
func endToEnd(r *report, rec *recorder, setup []float64, rssMB float64) {
	r.add("setup_s", median(setup), "s", len(setup))
	r.add("cells_per_s", float64(rec.ncells)/rec.elapsed.Seconds(), "1/s", rec.ncells)
	r.add("cpu_ms_per_cell", ms(rec.cpu)/float64(rec.ncells), "ms", rec.ncells)
	var batch, first []float64
	for _, b := range rec.batches {
		batch = append(batch, ms(b.total))
		first = append(first, ms(b.first))
	}
	r.timing("batch_ms", batch, "ms")
	r.timing("first_cell_ms", first, "ms")
	// is_ms and matching_ms: per batch, the mean time from a cell's request
	// to its delivery over the cells of that kind; the median over batches.
	for _, k := range []string{"is", "matching"} {
		perBatch := map[int][]float64{}
		var all []float64
		for c := range rec.allCells() {
			if kindOf(c.algo) == k {
				perBatch[c.batch] = append(perBatch[c.batch], ms(c.latency))
				all = append(all, ms(c.latency))
			}
		}
		var means []float64
		for _, xs := range perBatch {
			means = append(means, mean(xs))
		}
		r.add(k+"_ms", median(means), "ms", len(means))
		r.timing(k+"_cell_ms", all, "ms")
	}
	r.add("peak_rss_mb", rssMB, "MB", 1)
	rate := 0.0
	if rec.attempted > 0 {
		rate = float64(rec.failed) / float64(rec.attempted)
	}
	r.add("error_rate", rate, "ratio", rec.attempted)
	r.add("ops", float64(rec.attempted), "count", 1)
	r.add("ops_failed", float64(rec.failed), "count", 1)
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return -1
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return -1
			}
			return kb / 1024
		}
	}
	return -1
}

// spec is the part of BENCHMARK.json the benchmark reads: the metric names
// each mode must print.
type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(path string) (spec, error) {
	var s spec
	buf, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(buf, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

func names(ms []specMetric) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.Name
	}
	return out
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	spec     string
	counts   string
	outDir   string
	// writeCounts records this run's exact counts into the counts file
	// instead of checking them.
	writeCounts bool
	scale       scale
}

// scale sizes the workloads; fullScale is the benchmark, the tests use a
// reduced one.
type scale struct {
	solveCalls  []solveCall
	serveGraphs int // graphs each serve tenant keeps stored
	serveSeeds  int // fresh seeds per serve batch
	fleetSeeds  int // seeds per fleet batch
}

var fullScale = scale{
	solveCalls:  solveCalls,
	serveGraphs: 4,
	serveSeeds:  4,
	fleetSeeds:  16,
}

func newWorkload(opt options) (workload, error) {
	switch opt.workload {
	case "solve":
		return &solveWorkload{seed: opt.seed, calls: opt.scale.solveCalls}, nil
	case "serve":
		return &serveWorkload{seed: opt.seed, graphs: opt.scale.serveGraphs, seeds: opt.scale.serveSeeds, dir: opt.outDir}, nil
	case "fleet":
		return &fleetWorkload{seed: opt.seed, seeds: opt.scale.fleetSeeds}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have solve, serve, fleet)", opt.workload)
}

// run executes one benchmark run, printing the report to stdout. It returns
// the process exit code: 0 when every output checked out.
func run(opt options, stdout io.Writer) int {
	sp, err := loadSpec(opt.spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	w, err := newWorkload(opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	var tr *tracer
	if opt.trace {
		tr = newTracer()
	}
	setupTimes, tracedSetup, warm, problems, err := setUpAll(w, tr)
	defer w.tearDown()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: set-up:", err)
		return 1
	}

	// A traced run splits its time between the untraced and the traced
	// window, so it takes as long as an untraced run.
	window := time.Duration(opt.seconds * float64(time.Second))
	if opt.trace {
		window /= 2
	}
	untraced := newRecorder()
	timeWindow(w, untraced, window, nil)
	e2e := &report{}
	endToEnd(e2e, untraced, setupTimes, peakRSSMB())
	recs := []*recorder{untraced}

	var layer *report
	if opt.trace {
		traced := newRecorder()
		if layer, err = tracedWindow(w, traced, window, tr); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: traced window:", err)
			return 1
		}
		tracedE2E := &report{}
		endToEnd(tracedE2E, traced, []float64{tracedSetup}, peakRSSMB())
		for _, m := range sp.EndToEnd {
			t, _ := tracedE2E.get(m.Name)
			u, _ := e2e.get(m.Name)
			layer.add("trace_overhead."+m.Name, t.Value-u.Value, m.Unit, t.N)
		}
		for _, m := range sp.PerLayer {
			if _, ok := layer.get(m.Name); !ok {
				layer.na(m.Name, m.Unit)
			}
		}
		base := filepath.Join(opt.outDir, fmt.Sprintf("%s-seed%d", opt.workload, opt.seed))
		if err := tr.write(base); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
		}
		recs = append(recs, traced)
	}

	// Every output is checked after the timed windows.
	attempted, failed := 0, 0
	for _, rec := range recs {
		attempted += rec.attempted
		failed += rec.failed
		problems = append(problems, rec.problems...)
		bad := w.check(rec)
		failed += len(bad)
		problems = append(problems, bad...)
	}
	problems = append(problems, checkCounts(w, opt, warm, recs)...)
	correct := len(problems) == 0
	if failed == 0 && !correct {
		failed = 1 // a count disagreement is a failed check too
	}

	fmt.Fprintf(stdout, "workload %s seed %d seconds %g trace %v\n", opt.workload, opt.seed, opt.seconds, opt.trace)
	e2e.print(stdout)
	src, want := e2e, names(sp.EndToEnd)
	if layer != nil {
		layer.print(stdout)
		src, want = layer, names(sp.PerLayer)
	}
	for i, p := range problems {
		if i == 20 {
			fmt.Fprintf(stdout, "check: ... %d more\n", len(problems)-20)
			break
		}
		fmt.Fprintln(stdout, "check:", p)
	}
	line, err := resultLine(src, want, correct, max(attempted, 1), failed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, line)
	if !correct {
		return 1
	}
	return 0
}

// setUpAll sets the workload up setUps times, tearing each instance down
// before the next, and leaves the last one running. With a tracer the last
// set-up is traced and timed apart from the others. Every set-up's warm-up
// must give the same exact counts.
func setUpAll(w workload, tr *tracer) (untraced []float64, traced float64, warm map[string]counts, problems []string, err error) {
	for i := range setUps {
		if i > 0 {
			w.tearDown()
		}
		var str *tracer
		if i == setUps-1 {
			str = tr
		}
		t0 := time.Now()
		if err := w.setUp(str); err != nil {
			return nil, 0, nil, nil, err
		}
		if d := time.Since(t0).Seconds(); str != nil {
			traced = d
		} else {
			untraced = append(untraced, d)
		}
		c := w.setUpCounts()
		if i > 0 && !maps.Equal(warm, c) {
			problems = append(problems, fmt.Sprintf("set-up %d warm-up counts %v differ from set-up 1: %v", i+1, c, warm))
		}
		warm = c
	}
	return untraced, traced, warm, problems, nil
}

// tracedWindow runs a window with spans and a CPU profile and returns the
// per-layer metrics it measured. The profile is kept beside the spans.
func tracedWindow(w workload, rec *recorder, window time.Duration, tr *tracer) (*report, error) {
	var prof bytes.Buffer
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	timeWindow(w, rec, window, tr)
	pprof.StopCPUProfile()
	runtime.ReadMemStats(&after)
	r := &report{}
	if err := cpuShares(r, rec, prof.Bytes()); err != nil {
		return nil, err
	}
	if n := rec.ncells; n > 0 {
		r.add("registry.allocs_per_cell", float64(after.Mallocs-before.Mallocs)/float64(n), "count", n)
	}
	w.layerMetrics(rec, r)
	tr.profile = prof.Bytes()
	return r, nil
}

// timeWindow runs the workload's load for d and stamps the elapsed wall
// and process CPU time.
func timeWindow(w workload, rec *recorder, d time.Duration, tr *tracer) {
	cpu0 := processCPU()
	start := time.Now()
	w.run(start.Add(d), rec, tr)
	rec.elapsed = time.Since(start)
	rec.cpu = processCPU() - cpu0
}

// processCPU returns the user plus system CPU time the process has used.
// On a virtual machine it excludes time the host stole from the vCPUs,
// which wall-clock readings include.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuShares attributes the traced window's CPU profile to layers and adds
// cpu_share.<layer> (summing to 100) and simul.ns_per_msg.
func cpuShares(r *report, rec *recorder, prof []byte) error {
	by, err := cpuByLayer(prof)
	if err != nil {
		return err
	}
	var total int64
	for _, v := range by {
		total += v
	}
	for _, l := range layers {
		share := 0.0
		if total > 0 {
			share = 100 * float64(by[l]) / float64(total)
		}
		r.add("cpu_share."+l, share, "%", int(total/int64(time.Millisecond)))
	}
	var msgs int
	for c := range rec.allCells() {
		if !c.cacheHit {
			msgs += c.out.cost.Messages
		}
	}
	if msgs > 0 {
		r.add("simul.ns_per_msg", float64(by["simul"])/float64(msgs), "ns", msgs)
	}
	return nil
}

// countsFile is counts.json: per workload, the exact counts of the
// default seed.
type countsFile map[string]map[string]counts

// checkCounts verifies that the run's exact counts repeat: across set-ups,
// across passes of the window, and against counts.json for the default
// seed. With writeCounts it records them instead.
func checkCounts(w workload, opt options, warm map[string]counts, recs []*recorder) []string {
	got := map[string]counts{}
	for k, v := range warm {
		got["warmup."+k] = v
	}
	var problems []string
	for i, rec := range recs {
		c, bad := w.windowCounts(rec)
		problems = append(problems, bad...)
		for k, v := range c {
			if prev, ok := got[k]; ok && i > 0 && prev != v {
				problems = append(problems, fmt.Sprintf("count %s: traced window %+v, untraced %+v", k, v, prev))
			}
			got[k] = v
		}
	}
	if opt.seed != defaultSeed || opt.counts == "" {
		return problems
	}
	file := countsFile{}
	if buf, err := os.ReadFile(opt.counts); err == nil {
		if err := json.Unmarshal(buf, &file); err != nil {
			return append(problems, fmt.Sprintf("%s: %v", opt.counts, err))
		}
	} else if !opt.writeCounts {
		return append(problems, err.Error())
	}
	if opt.writeCounts {
		file[opt.workload] = got
		buf, err := json.MarshalIndent(file, "", "  ")
		if err == nil {
			err = os.WriteFile(opt.counts, append(buf, '\n'), 0o644)
		}
		if err != nil {
			problems = append(problems, err.Error())
		}
		return problems
	}
	// A short window may not reach every recorded key; every key it did
	// reach must be recorded and equal.
	want := file[opt.workload]
	for _, k := range slices.Sorted(maps.Keys(got)) {
		switch w, ok := want[k]; {
		case !ok:
			problems = append(problems, fmt.Sprintf("count %s is not recorded in %s", k, opt.counts))
		case w != got[k]:
			problems = append(problems, fmt.Sprintf("count %s = %+v, recorded %+v", k, got[k], w))
		}
	}
	return problems
}
