package main

import (
	"math"
	"slices"
	"strings"
	"testing"
)

// seq returns n samples in descending order: the report helpers must not
// rely on their input being sorted.
func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i)
	}
	return xs
}

// TestTailNeedsTenBeyond pins the percentile rule at small sample counts:
// a tail percentile is reported only with at least ten samples beyond it.
func TestTailNeedsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n  int
		p  float64
		ok bool
	}{
		{0, 0, false},
		{1, 0, false},
		{10, 0, false},
		{99, 0, false}, // p90 rank 90 leaves 9 beyond
		{100, 90, true},
		{199, 90, true}, // p95 rank 190 leaves 9 beyond
		{200, 95, true},
		{1000, 99, true},
		{10000, 99.9, true},
	} {
		s := seq(tc.n)
		slices.Sort(s)
		p, v, ok := tail(s)
		if ok != tc.ok || p != tc.p {
			t.Errorf("n=%d: tail = p%g ok=%v, want p%g ok=%v", tc.n, p, ok, tc.p, tc.ok)
			continue
		}
		if ok && beyond(tc.n, p) < minBeyond {
			t.Errorf("n=%d: p%g (=%g) has %d samples beyond", tc.n, p, v, beyond(tc.n, p))
		}
	}
}

func TestPercentileAndMedian(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := percentile(s, 90); got != 9 {
		t.Errorf("p90 of 1..10 = %g, want 9", got)
	}
	if got := percentile(s, 100); got != 10 {
		t.Errorf("p100 of 1..10 = %g, want 10", got)
	}
	if got := percentile(s[:1], 50); got != 1 {
		t.Errorf("p50 of one sample = %g, want 1", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median(3,1,2) = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median(4,1,3,2) = %g", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples should be NaN")
	}
}

func TestTimingReportsP90OnlyWithEnoughSamples(t *testing.T) {
	var r report
	r.timing("few", seq(50), "ms")
	r.timing("many", seq(100), "ms")
	r.timing("lots", seq(1000), "ms")
	for name, want := range map[string]bool{
		"few.p50": true, "few.p90": false,
		"many.p50": true, "many.p90": true, "many.p99": false,
		"lots.p90": true, "lots.p99": true, "lots.p99.9": false,
	} {
		if _, ok := r.get(name); ok != want {
			t.Errorf("%s reported = %v, want %v", name, ok, want)
		}
	}
}

func TestPrintAndResultLine(t *testing.T) {
	var r report
	r.add("cells_per_s", 12.5, "1/s", 250)
	r.add("setup_s", 0.25, "s", 3)
	r.na("cluster.retries", "count")
	var out strings.Builder
	r.print(&out)
	want := "cells_per_s 12.5 1/s n=250\nsetup_s 0.25 s n=3\ncluster.retries 0 count n/a\n"
	if out.String() != want {
		t.Errorf("print:\n%s\nwant:\n%s", out.String(), want)
	}
	line, err := resultLine(&r, []string{"cells_per_s", "setup_s"}, true, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"correct":true,"attempted":10,"failed":0,"metrics":{"cells_per_s":{"value":12.5,"unit":"1/s"},"setup_s":{"value":0.25,"unit":"s"}}}`; line != want {
		t.Errorf("result line %s, want %s", line, want)
	}
	if _, err := resultLine(&r, []string{"batch_ms.p50"}, true, 1, 0); err == nil {
		t.Error("a declared metric the run did not measure must be an error")
	}
}
