package harness

import (
	"bytes"
	"strings"
	"testing"

	"minnow/internal/arrival"
	"minnow/internal/galois"
	"minnow/internal/kernels"
)

// arrivalOpts returns obsOpts with a parsed arrival plan attached.
func arrivalOpts(t *testing.T, plan string) Options {
	t.Helper()
	o := obsOpts()
	p, err := arrival.ParsePlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	o.Arrivals = p
	return o
}

// TestArrivalLayerInert is the subsystem's load-bearing contract: with
// no arrival plan the layer must not exist — no latency stats, no
// "latency" key in the canonical summary JSON, and (with the invariant
// checker armed, which shares the watchdog path the arrival layer
// taught about pending injections) the same wall cycles, step count,
// and summary hash as a plain run.
func TestArrivalLayerInert(t *testing.T) {
	spec, err := kernels.SpecByName("SSSP")
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Run(spec, obsOpts())
	if err != nil {
		t.Fatal(err)
	}
	o := obsOpts()
	o.Invariants = true
	armed, err := Run(spec, o)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Latency != nil || armed.Latency != nil {
		t.Fatalf("latency stats populated on closed-loop runs")
	}
	if js := plain.Summary().JSON(); strings.Contains(string(js), `"latency"`) {
		t.Fatalf("closed-loop summary JSON leaks a latency key:\n%s", js)
	}
	if armed.WallCycles != plain.WallCycles || armed.SimSteps != plain.SimSteps {
		t.Fatalf("invariants armed changed the run: wall %d/%d steps %d/%d",
			armed.WallCycles, plain.WallCycles, armed.SimSteps, plain.SimSteps)
	}
	if a, b := armed.Summary().Hash(), plain.Summary().Hash(); a != b {
		t.Fatalf("summary hash changed with invariants armed:\n  armed %s\n  plain %s", a, b)
	}
}

// TestArrivalEquivalentAcrossWorkers pins the -jobs contract with
// arrivals on: the canonical RunSummary JSON (latency percentiles
// included) of every arrival run must be byte-identical whether
// RunJobs executes the runs one at a time or two at once. Run under
// -race in CI, this is also the proof that concurrent arrival runs
// share no state.
func TestArrivalEquivalentAcrossWorkers(t *testing.T) {
	var jobs []Job
	for _, bench := range []string{"SSSP", "BFS"} {
		for _, plan := range []string{"steady", "waves"} {
			jobs = append(jobs, Job{Bench: bench, Opts: arrivalOpts(t, plan)})
		}
	}
	serial := RunJobs(jobs, 1)
	parallel := RunJobs(jobs, 2)
	for i, j := range jobs {
		s, p := serial[i], parallel[i]
		if s.Err != nil || p.Err != nil {
			t.Fatalf("job %d (%s): serial %v, parallel %v", i, j.Bench, s.Err, p.Err)
		}
		if s.Run.Latency == nil {
			t.Fatalf("job %d (%s): arrival run recorded no latency stats", i, j.Bench)
		}
		if want := j.Opts.Arrivals.Total(); s.Run.Latency.Injected != want {
			t.Fatalf("job %d (%s): injected %d of %d scheduled arrivals", i, j.Bench, s.Run.Latency.Injected, want)
		}
		if !bytes.Equal(s.Run.Summary().JSON(), p.Run.Summary().JSON()) {
			t.Fatalf("job %d (%s): summary JSON diverged between 1 and 2 workers\n  serial %s\n  para   %s",
				i, j.Bench, s.Run.Summary().Hash(), p.Run.Summary().Hash())
		}
	}
}

// TestArrivalDoubleRunIdentical runs the same arrival configuration
// twice and demands byte-identical summaries — the replay-determinism
// half of the equivalence contract (the schedule is materialized from
// the plan seed, so nothing may vary between runs).
func TestArrivalDoubleRunIdentical(t *testing.T) {
	spec, err := kernels.SpecByName("BFS")
	if err != nil {
		t.Fatal(err)
	}
	o := arrivalOpts(t, "waves")
	a, err := Run(spec, o)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(spec, o)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Summary().JSON(), b.Summary().JSON()) {
		t.Fatalf("same plan, different runs:\n  %s\n  %s", a.Summary().Hash(), b.Summary().Hash())
	}
	if a.WallCycles != b.WallCycles || a.SimSteps != b.SimSteps {
		t.Fatalf("arrival replay diverged: wall %d/%d steps %d/%d",
			a.WallCycles, b.WallCycles, a.SimSteps, b.SimSteps)
	}
}

// TestArrivalConservationInvariants runs arrival plans with the
// invariant checker armed across benchmarks and presets: Run fails on
// any conservation violation, so a pass proves every scheduled arrival
// was delivered, credited at birth, and retired, and the answer still
// verified against the reference.
func TestArrivalConservationInvariants(t *testing.T) {
	for _, bench := range []string{"SSSP", "BFS", "CC"} {
		for _, preset := range []string{"steady", "waves"} {
			bench, preset := bench, preset
			t.Run(bench+"/"+preset, func(t *testing.T) {
				t.Parallel()
				spec, err := kernels.SpecByName(bench)
				if err != nil {
					t.Fatal(err)
				}
				o := arrivalOpts(t, preset)
				o.Invariants = true
				run, err := Run(spec, o)
				if err != nil {
					t.Fatal(err)
				}
				if run.Latency == nil {
					t.Fatal("no latency stats")
				}
				if run.Latency.Injected != run.Latency.Retired {
					t.Fatalf("injected %d != retired %d", run.Latency.Injected, run.Latency.Retired)
				}
				if want := o.Arrivals.Total(); run.Latency.Injected != want {
					t.Fatalf("injected %d of %d scheduled", run.Latency.Injected, want)
				}
				for _, c := range run.Latency.Classes {
					if c.WaitP50 > c.WaitP95 || c.WaitP95 > c.WaitP99 {
						t.Fatalf("class %s wait percentiles not monotone: %d/%d/%d",
							c.Class, c.WaitP50, c.WaitP95, c.WaitP99)
					}
					if c.SojournP50 > c.SojournP95 || c.SojournP95 > c.SojournP99 {
						t.Fatalf("class %s sojourn percentiles not monotone: %d/%d/%d",
							c.Class, c.SojournP50, c.SojournP95, c.SojournP99)
					}
					if c.SojournP50 < c.WaitP50 {
						t.Fatalf("class %s sojourn p50 %d below wait p50 %d (sojourn includes execution)",
							c.Class, c.SojournP50, c.WaitP50)
					}
				}
			})
		}
	}
}

// TestArrivalConservationDetectsDrop exercises the failure arm the
// conservation suite otherwise never reaches: an injection actor that
// claims fewer deliveries than its schedule must produce deterministic
// arrival-conservation violations from the invariant checker.
func TestArrivalConservationDetectsDrop(t *testing.T) {
	arr := &arrivalActor{events: make([]arrival.Event, 3), next: 2, delivered: 2}
	v := checkInvariants(Options{}, true, new(galois.Runner), nil, nil, nil, buildMem(small(1).withDefaults()), arr)
	var drop, credit bool
	for _, msg := range v {
		if strings.Contains(msg, "delivered 2 of 3 scheduled arrivals") {
			drop = true
		}
		if strings.Contains(msg, "injector delivered 2 but runner credited 0") {
			credit = true
		}
	}
	if !drop || !credit {
		t.Fatalf("dropped arrivals not flagged (drop=%v credit=%v): %q", drop, credit, v)
	}
}

// TestArrivalRejectsCountOnceKernels pins the capability gate: TC and
// BC count each triangle/traversal exactly once, so re-evaluating an
// injected node would corrupt the answer — the harness must reject the
// combination up front rather than fail verification later.
func TestArrivalRejectsCountOnceKernels(t *testing.T) {
	for _, bench := range []string{"TC", "BC"} {
		spec, err := kernels.SpecByName(bench)
		if err != nil {
			t.Fatal(err)
		}
		_, err = Run(spec, arrivalOpts(t, "trickle"))
		if err == nil {
			t.Fatalf("%s accepted an arrival plan", bench)
		}
		if !strings.Contains(err.Error(), "does not support open-loop arrivals") {
			t.Fatalf("%s: wrong rejection: %v", bench, err)
		}
	}
}
