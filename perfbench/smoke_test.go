package main

import (
	"encoding/json"
	"strings"
	"testing"
)

// smallScale shrinks every workload so each runs in about a second.
var smallScale = scale{
	solveCalls: []solveCall{
		{"maxis-sparse", "maxis", 600, 8},
		{"maxis-det-sparse", "maxis-det", 600, 8},
		{"mwm2-sparse", "mwm2", 300, 8},
		{"fastmwm-sparse", "fastmwm", 300, 8},
		{"mwm2-dense", "mwm2", 120, 32},
	},
	serveGraphs: 2,
	serveSeeds:  1,
	fleetSeeds:  2,
}

// smoke runs one reduced workload and returns its printed lines and the
// decoded result line.
func smoke(t *testing.T, workload string, trace bool) ([]string, result) {
	t.Helper()
	var out strings.Builder
	code := run(options{
		workload: workload, seed: 5, seconds: 0.3, trace: trace,
		spec: "../BENCHMARK.json", outDir: t.TempDir(), scale: smallScale,
	}, &out)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if code != 0 {
		t.Fatalf("%s: exit %d\n%s", workload, code, out.String())
	}
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not the result: %v", workload, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s: result %+v", workload, res)
	}
	return lines[:len(lines)-1], res
}

func TestSmokeUntraced(t *testing.T) {
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"solve", "serve", "fleet"} {
		t.Run(w, func(t *testing.T) {
			_, res := smoke(t, w, false)
			if len(res.Metrics) != len(sp.EndToEnd) {
				t.Errorf("%d metrics, want the %d end-to-end ones", len(res.Metrics), len(sp.EndToEnd))
			}
			for _, m := range sp.EndToEnd {
				v, ok := res.Metrics[m.Name]
				if !ok || v.Unit != m.Unit || v.Value <= 0 {
					t.Errorf("%s = %+v (present %v), want a positive value in %s", m.Name, v, ok, m.Unit)
				}
			}
		})
	}
}

// TestSmokeTraced checks that the traced run reports every declared
// per-layer metric and measures each workload's own layers.
func TestSmokeTraced(t *testing.T) {
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	measured := map[string][]string{
		"solve": {"registry.run_s.maxis-sparse", "simul.rounds.mwm2-dense", "agg.memo_hit_ratio.mwm2-dense", "simul.ns_per_msg"},
		"serve": {"service.queue_wait_ms.p50", "service.run_ms.p50", "httpapi.deliver_lag_ms.p50", "store.put_ms.p50", "httpapi.wire_bytes_per_cell"},
		"fleet": {"cluster.groups_per_batch", "cluster.wire_bytes_per_cell", "cluster.submit_ms.p50", "httpapi.submit_ms.p50"},
	}
	for w, want := range measured {
		t.Run(w, func(t *testing.T) {
			lines, res := smoke(t, w, true)
			if len(res.Metrics) != len(sp.PerLayer) {
				t.Errorf("%d metrics, want the %d per-layer ones", len(res.Metrics), len(sp.PerLayer))
			}
			for _, m := range sp.PerLayer {
				if _, ok := res.Metrics[m.Name]; !ok {
					t.Errorf("per-layer metric %s missing", m.Name)
				}
			}
			printed := map[string]string{}
			for _, l := range lines {
				if name, rest, ok := strings.Cut(l, " "); ok {
					printed[name] = rest
				}
			}
			for _, name := range want {
				if rest, ok := printed[name]; !ok || strings.HasSuffix(rest, "n/a") {
					t.Errorf("%s not measured on %s: %q", name, w, rest)
				}
			}
			sum := 0.0
			for _, l := range layers {
				sum += res.Metrics["cpu_share."+l].Value
			}
			if sum != 0 && (sum < 99.999 || sum > 100.001) {
				t.Errorf("cpu shares sum to %g", sum)
			}
		})
	}
}
