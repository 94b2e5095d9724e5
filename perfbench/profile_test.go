package main

import (
	"bytes"
	"math"
	"os"
	"runtime/pprof"
	"testing"
	"time"
)

// TestEveryRepositoryPackageHasALayer keeps the attribution table complete:
// each package under internal/ and the root facade either owns a layer or
// is listed as passing its time to the caller.
func TestEveryRepositoryPackageHasALayer(t *testing.T) {
	entries, err := os.ReadDir("../internal")
	if err != nil {
		t.Fatal(err)
	}
	pkgs := []string{"repro"}
	for _, e := range entries {
		if e.IsDir() {
			pkgs = append(pkgs, "repro/internal/"+e.Name())
		}
	}
	for _, p := range pkgs {
		_, owned := packageLayers[p]
		if owned == passThrough[p] {
			t.Errorf("package %s: owns a layer %v, passes through %v; want exactly one", p, owned, passThrough[p])
		}
	}
	named := map[string]bool{}
	for _, l := range layers {
		named[l] = true
	}
	for p, l := range packageLayers {
		if !named[l] {
			t.Errorf("package %s maps to unlisted layer %q", p, l)
		}
	}
}

func TestFuncPackage(t *testing.T) {
	for name, want := range map[string]string{
		"repro/internal/agg.(*directNode).Step":    "repro/internal/agg",
		"repro/internal/simul.(*Engine).Run.func1": "repro/internal/simul",
		"repro.Run":              "repro",
		"net/http.(*conn).serve": "net/http",
		"runtime.mallocgc":       "runtime",
		"slices.SortFunc[go.shape.[]int,go.shape.int]":  "slices",
		"main.(*serveWorkload).run.func1":               "main",
		"vendor/golang.org/x/net/http/httpguts.IsToken": "vendor/golang.org/x/net/http/httpguts",
	} {
		if got := funcPackage(name); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", name, got, want)
		}
	}
}

func TestLayerOf(t *testing.T) {
	for _, tc := range []struct {
		stack []string // innermost first
		want  string
	}{
		{[]string{"runtime.mallocgc", "repro/internal/agg.(*lineNode).Step", "repro/internal/simul.(*Engine).step"}, "agg"},
		{[]string{"runtime.memmove", "repro/internal/rng.(*Stream).Uint64", "repro/internal/mis.luby"}, "algo"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime.gc"},
		{[]string{"runtime.mallocgc", "runtime.gcAssistAlloc", "repro/internal/agg.fold"}, "runtime.gc"},
		{[]string{"syscall.Syscall", "internal/poll.(*FD).Write", "net.(*conn).Write", "repro/internal/httpapi.writeStreamFrame"}, "wire"},
		{[]string{"encoding/binary.AppendUvarint", "repro/internal/httpapi.encodeStreamCell"}, "httpapi"},
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule"}, "other"},
		{[]string{"main.(*solveWorkload).run"}, "other"},
		{nil, "other"},
	} {
		if got := layerOf(tc.stack); got != tc.want {
			t.Errorf("layerOf(%v) = %s, want %s", tc.stack, got, tc.want)
		}
	}
}

//go:noinline
func burn(d time.Duration) (x uint64) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

// TestSharesSumTo100 profiles real CPU work, decodes the profile and checks
// that every sample lands in exactly one layer: the shares sum to 100%.
func TestSharesSumTo100(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	burn(300 * time.Millisecond)
	pprof.StopCPUProfile()

	p, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(p.samples) == 0 {
		t.Skip("profile holds no samples")
	}
	var r report
	if err := cpuShares(&r, newRecorder(), buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, l := range layers {
		m, ok := r.get("cpu_share." + l)
		if !ok {
			t.Fatalf("cpu_share.%s missing", l)
		}
		sum += m.Value
	}
	if math.Abs(sum-100) > 1e-9 {
		t.Errorf("cpu shares sum to %g, want 100", sum)
	}
	// burn lives in package main, which owns no layer.
	if m, _ := r.get("cpu_share.other"); m.Value < 50 {
		t.Errorf("cpu_share.other = %g%%, want most of a profile spent in main.burn", m.Value)
	}
}
