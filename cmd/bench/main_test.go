package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestCommittedHashes pins simulated results across commits: every entry
// of the committed BENCH_minnow.json is re-run with the file's threads,
// scale, and seed, and its summary hash must match. A mismatch means the
// timing model changed; the failure prints the stored and observed
// headline counters so the drift can be located. Regenerate the file with
// `go run ./cmd/bench` only when a change is meant to alter results.
func TestCommittedHashes(t *testing.T) {
	data, err := os.ReadFile("../../BENCH_minnow.json")
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Schema != "minnow-bench-v4" {
		t.Fatalf("schema %q, want minnow-bench-v4 (regenerate BENCH_minnow.json)", rep.Schema)
	}
	if len(rep.Entries) != len(configs) {
		t.Fatalf("%d committed entries, want one per config (%d)", len(rep.Entries), len(configs))
	}
	for i, want := range rep.Entries {
		c := configs[i]
		if want.Bench != c.bench || want.Scheduler != c.sched || want.Prefetch != c.prefetch {
			t.Fatalf("entry %d is %s/%s pf=%v, want %s/%s pf=%v",
				i, want.Bench, want.Scheduler, want.Prefetch, c.bench, c.sched, c.prefetch)
		}
		got, err := measure(c, rep.Threads, rep.Scale, rep.Seed)
		if err != nil {
			t.Fatalf("%s/%s: %v", want.Bench, want.Scheduler, err)
		}
		if got.SummaryHash != want.SummaryHash {
			t.Errorf("%s/%s pf=%v: summary hash drifted\n"+
				"             stored        observed\n"+
				"  hash       %.16s  %.16s\n"+
				"  sim_cycles %-12d  %d\n"+
				"  sim_steps  %-12d  %d\n"+
				"  work_items %-12d  %d\n"+
				"  instrs     %-12d  %d",
				want.Bench, want.Scheduler, want.Prefetch,
				want.SummaryHash, got.SummaryHash,
				want.SimCycles, got.SimCycles,
				want.SimSteps, got.SimSteps,
				want.WorkItems, got.WorkItems,
				want.Instructions, got.Instructions)
		}
	}
}
