package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

// benchmarkFile is the part of BENCHMARK.json the smoke test checks
// against.
type benchmarkFile struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// tinyRun runs one workload at smoke-test sizes.
func tinyRun(t *testing.T, workload string, seed uint64, trace bool, pins pinSet) (result, pinSet, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	o := options{
		workload: workload, seed: seed, seconds: 1, trace: trace, tiny: true,
		pins: pins, scratch: t.TempDir(), stdout: &stdout, stderr: &stderr,
	}
	res, observed, err := run(o)
	if err != nil {
		t.Fatalf("%s: %v\n%s", workload, err, stderr.String())
	}
	if !strings.HasPrefix(stdout.String(), "provenance {\"num_cpu\":") {
		t.Errorf("%s: no provenance line in %q", workload, stdout.String())
	}
	return res, observed, stderr.String()
}

// checkNames asserts that res reports exactly the named metrics, each
// with its unit.
func checkNames(t *testing.T, workload string, res result, want []struct{ Name, Unit string }) {
	t.Helper()
	if len(res.Metrics) != len(want) {
		t.Errorf("%s: %d metrics reported, BENCHMARK.json names %d", workload, len(res.Metrics), len(want))
	}
	for _, d := range want {
		got, ok := res.Metrics[d.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", workload, d.Name)
		case got.Unit != d.Unit:
			t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", workload, d.Name, got.Unit, d.Unit)
		case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
			t.Errorf("%s: metric %s = %v", workload, d.Name, got.Value)
		}
	}
}

// TestSmoke runs every workload untraced on two seeds and traced on one,
// and checks the metric names, units and the absence of copies.
func TestSmoke(t *testing.T) {
	f := readBenchmarkFile(t)
	if len(f.EndToEnd) != len(endToEnd) || len(f.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json names %d+%d metrics, the benchmark %d+%d",
			len(f.EndToEnd), len(f.PerLayer), len(endToEnd), len(perLayer))
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[d.name] {
			t.Errorf("metric %s is defined twice", d.name)
		}
		seen[d.name] = true
	}
	for _, w := range f.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			a, _, _ := tinyRun(t, w.Name, 1, false, pinSet{})
			b, _, _ := tinyRun(t, w.Name, 2, false, pinSet{})
			for _, r := range []result{a, b} {
				checkNames(t, w.Name, r, f.EndToEnd)
				if !r.Correct || r.Failed != 0 {
					t.Errorf("%s: correct=%v failed=%d", w.Name, r.Correct, r.Failed)
				}
				for name, v := range r.Metrics {
					if v.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, name, v.Value)
					}
				}
			}
			// A metric that is a fixed multiple of another keeps the same
			// ratio to it across runs on different inputs.
			for _, x := range f.EndToEnd {
				for _, y := range f.EndToEnd {
					if x.Name >= y.Name {
						continue
					}
					ra := a.Metrics[x.Name].Value / a.Metrics[y.Name].Value
					rb := b.Metrics[x.Name].Value / b.Metrics[y.Name].Value
					if math.Abs(ra-rb) <= 1e-9*math.Abs(ra) {
						t.Errorf("%s: %s and %s keep the ratio %v on two seeds: one copies the other", w.Name, x.Name, y.Name, ra)
					}
				}
			}
			tr, _, _ := tinyRun(t, w.Name, 1, true, pinSet{})
			checkNames(t, w.Name, tr, f.PerLayer)
			if tr.Metrics["sim.run_pct"].Value <= 0 || tr.Metrics["cpu.instrs"].Value <= 0 {
				t.Errorf("%s: traced run reports no simulation: %+v", w.Name, tr.Metrics)
			}
			prefetches := tr.Metrics["core.prefetches"].Value
			if (w.Name == "sssp-minnow64") != (prefetches > 0) {
				t.Errorf("%s: core.prefetches = %v", w.Name, prefetches)
			}
			if hits := tr.Metrics["service.hit_count"].Value; (w.Name == "svc-mix") != (hits > 0) {
				t.Errorf("%s: service.hit_count = %v", w.Name, hits)
			}
		})
	}
}

// TestDoctoredPin checks that a pinned hash the program does not
// reproduce fails the job, reports a field-level diff and drives
// failed_frac above 0.
func TestDoctoredPin(t *testing.T) {
	_, observed, _ := tinyRun(t, "sssp-minnow64", 1, false, pinSet{})
	pins := pinSet{}
	for k, d := range observed {
		pins[k] = d
	}
	w := ssspMinnow64(true)
	key := jobKey(w.benches[0], w.threads, w.sched, w.prefetch, w.inputSeed(1, 0)) // the first timed job
	d, ok := pins[key]
	if !ok {
		t.Fatalf("the untraced run did not run %s", key)
	}
	d.Hash = strings.Repeat("0", len(d.Hash))
	d.Fields["wall_cycles"]++
	pins[key] = d

	res, _, stderr := tinyRun(t, "sssp-minnow64", 1, true, pins)
	if res.Correct || res.Failed == 0 {
		t.Errorf("doctored pin for %s: correct=%v failed=%d", key, res.Correct, res.Failed)
	}
	if v := res.Metrics["failed_frac"].Value; v <= 0 {
		t.Errorf("failed_frac = %v, want > 0", v)
	}
	if !strings.Contains(stderr, key) || !strings.Contains(stderr, "wall_cycles") {
		t.Errorf("mismatch report lacks the key or the field diff:\n%s", stderr)
	}
}
