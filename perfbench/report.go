package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"
)

// tailPercentiles are the tail percentiles the report considers, highest
// first; a timing is reported at the highest one with at least minBeyond
// samples above it.
var tailPercentiles = []float64{99.9, 99, 95, 90}

// minBeyond is how many samples must lie beyond a reported tail percentile.
const minBeyond = 10

// rank is the 1-based nearest rank of the p-th percentile of n samples:
// the smallest rank with at least p% of the samples at or below it.
func rank(n int, p float64) int {
	return min(max(int(math.Ceil(p*float64(n)/100)), 1), n)
}

// percentile returns the nearest-rank p-th percentile of sorted.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rank(len(sorted), p)-1]
}

// beyond counts the samples ranked above the p-th percentile of n samples.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - rank(n, p)
}

// median returns the median of xs (the mean of the middle two for an even
// count); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest tail percentile of sorted with at least
// minBeyond samples beyond it, and false when there are too few samples.
func tail(sorted []float64) (p, v float64, ok bool) {
	for _, p := range tailPercentiles {
		if beyond(len(sorted), p) >= minBeyond {
			return p, percentile(sorted, p), true
		}
	}
	return 0, 0, false
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// metric is one reported figure: its value, unit and the number of samples
// it was computed from (1 for a count or a single ratio).
type metric struct {
	Name  string
	Value float64
	Unit  string
	N     int
	// NA marks a metric whose layer is not on this workload's path; its
	// value is reported as 0.
	NA bool
}

// report collects the metrics of one run in print order.
type report struct {
	metrics []metric
	byName  map[string]int
}

func (r *report) add(name string, v float64, unit string, n int) {
	if r.byName == nil {
		r.byName = make(map[string]int)
	}
	if i, ok := r.byName[name]; ok {
		r.metrics[i] = metric{Name: name, Value: v, Unit: unit, N: n}
		return
	}
	r.byName[name] = len(r.metrics)
	r.metrics = append(r.metrics, metric{Name: name, Value: v, Unit: unit, N: n})
}

// na records a metric whose layer the workload does not exercise.
func (r *report) na(name, unit string) {
	r.add(name, 0, unit, 0)
	r.metrics[r.byName[name]].NA = true
}

// timing adds name.p50, name.p90 when at least minBeyond samples lie
// beyond it, and the highest tail percentile the sample count allows.
func (r *report) timing(name string, xs []float64, unit string) {
	r.add(name+".p50", median(xs), unit, len(xs))
	s := slices.Clone(xs)
	slices.Sort(s)
	if beyond(len(s), 90) >= minBeyond {
		r.add(name+".p90", percentile(s, 90), unit, len(s))
	}
	if p, v, ok := tail(s); ok && p != 90 {
		r.add(fmt.Sprintf("%s.p%g", name, p), v, unit, len(s))
	}
}

func (r *report) get(name string) (metric, bool) {
	i, ok := r.byName[name]
	if !ok {
		return metric{}, false
	}
	return r.metrics[i], true
}

// print writes every metric as "name value unit n=<samples>"; a metric
// whose layer the workload does not exercise ends in "n/a".
func (r *report) print(w io.Writer) {
	for _, m := range r.metrics {
		switch {
		case m.NA:
			fmt.Fprintf(w, "%s 0 %s n/a\n", m.Name, m.Unit)
		case math.IsNaN(m.Value):
			fmt.Fprintf(w, "%s - %s n=0\n", m.Name, m.Unit)
		default:
			fmt.Fprintf(w, "%s %s %s n=%d\n", m.Name, formatValue(m.Value), m.Unit, m.N)
		}
	}
}

func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.6g", v)
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine renders the final JSON object with the named metrics taken
// from r. A metric missing from r or not a finite number is an error: the
// declared metric set is a contract.
func resultLine(r *report, names []string, correct bool, attempted, failed int) (string, error) {
	res := result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: make(map[string]resultValue, len(names))}
	var missing []string
	for _, name := range names {
		m, ok := r.get(name)
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			missing = append(missing, name)
			continue
		}
		res.Metrics[name] = resultValue{Value: m.Value, Unit: m.Unit}
	}
	if len(missing) > 0 {
		return "", fmt.Errorf("metrics not measured: %s", strings.Join(missing, ", "))
	}
	buf, err := json.Marshal(res)
	return string(buf), err
}
