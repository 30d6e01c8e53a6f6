// Command bench runs the tier-1 benchmark set end to end and writes a
// machine-readable performance trajectory file (BENCH_minnow.json): per
// configuration, the host wall time, simulated cycles, event-loop steps,
// simulation throughput (steps per host second), and the run's canonical
// summary hash. CI uploads the file as an artifact so simulator
// performance can be tracked commit to commit, and the embedded hashes
// double as a cross-commit determinism check: a hash change without an
// intentional timing-model change is a regression.
//
// The committed BENCH_minnow.json is that check's baseline: the package
// test re-runs every entry with the file's threads, scale, and seed and
// fails on any summary-hash drift.
//
// Usage:
//
//	bench                      # SSSP/CC/TC × {obim, minnow+prefetch}
//	bench -out bench.json -threads 4 -scale 1
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"minnow/internal/harness"
	"minnow/internal/kernels"
)

// entry is one benchmark configuration's measurement.
type entry struct {
	Bench        string  `json:"bench"`
	Scheduler    string  `json:"scheduler"`
	Prefetch     bool    `json:"prefetch"`
	Threads      int     `json:"threads"`
	WallSeconds  float64 `json:"wall_seconds"`  // host time for the run
	SimCycles    int64   `json:"sim_cycles"`    // simulated wall cycles
	SimSteps     int64   `json:"sim_steps"`     // event-loop actor steps
	StepsPerSec  float64 `json:"steps_per_sec"` // simulation throughput
	SummaryHash  string  `json:"summary_hash"`  // canonical RunSummary digest
	WorkItems    int64   `json:"work_items"`    // operator applications
	Instructions int64   `json:"instructions"`  // retired micro-ops
}

// report is the BENCH_minnow.json schema.
type report struct {
	Schema       string  `json:"schema"`
	GoVersion    string  `json:"go_version"`
	NumCPU       int     `json:"num_cpu"`
	Threads      int     `json:"threads"`
	Scale        int     `json:"scale"`
	Seed         uint64  `json:"seed"`
	Entries      []entry `json:"entries"`
	TotalSeconds float64 `json:"total_seconds"`
}

func main() {
	var (
		out     = flag.String("out", "BENCH_minnow.json", "output JSON path")
		threads = flag.Int("threads", 8, "simulated core count")
		scale   = flag.Int("scale", 1, "input scale multiplier")
		seed    = flag.Uint64("seed", 42, "graph generator seed")
	)
	flag.Parse()

	rep := report{
		Schema:    "minnow-bench-v4",
		GoVersion: runtime.Version(),
		NumCPU:    runtime.NumCPU(),
		Threads:   *threads,
		Scale:     *scale,
		Seed:      *seed,
	}
	start := time.Now()
	for _, c := range configs {
		e, err := measure(c, *threads, *scale, *seed)
		if err != nil {
			fail(err)
		}
		rep.Entries = append(rep.Entries, e)
		fmt.Printf("%-5s %-6s pf=%-5v  %8.2fs  %12d cycles  %10.0f steps/s  %s\n",
			e.Bench, e.Scheduler, e.Prefetch, e.WallSeconds, e.SimCycles, e.StepsPerSec, e.SummaryHash[:16])
	}
	rep.TotalSeconds = time.Since(start).Seconds()

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fail(err)
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		fail(err)
	}
	fmt.Printf("wrote %s (%d entries, %.1fs total)\n", *out, len(rep.Entries), rep.TotalSeconds)
}

// config is one benchmark configuration of the set.
type config struct {
	bench, sched string
	prefetch     bool
}

// configs is the benchmark set: SSSP/CC/TC × {obim, minnow+prefetch}.
var configs = []config{
	{"SSSP", "obim", false}, {"SSSP", "minnow", true},
	{"CC", "obim", false}, {"CC", "minnow", true},
	{"TC", "obim", false}, {"TC", "minnow", true},
}

// measure runs one configuration and times it on the host.
func measure(c config, threads, scale int, seed uint64) (entry, error) {
	spec, err := kernels.SpecByName(c.bench)
	if err != nil {
		return entry{}, err
	}
	o := harness.Options{
		Threads:        threads,
		Scale:          scale,
		Seed:           seed,
		Scheduler:      c.sched,
		Prefetch:       c.prefetch,
		SplitThreshold: 512,
	}
	t0 := time.Now()
	run, err := harness.Run(spec, o)
	if err != nil {
		return entry{}, err
	}
	dt := time.Since(t0).Seconds()
	e := entry{
		Bench:        c.bench,
		Scheduler:    c.sched,
		Prefetch:     c.prefetch,
		Threads:      threads,
		WallSeconds:  dt,
		SimCycles:    run.WallCycles,
		SimSteps:     run.SimSteps,
		SummaryHash:  run.Summary().Hash(),
		WorkItems:    run.WorkItems,
		Instructions: run.SumCores().Instrs,
	}
	if dt > 0 {
		e.StepsPerSec = float64(run.SimSteps) / dt
	}
	return e, nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}
