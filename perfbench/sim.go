package main

import (
	"fmt"
	"runtime"
	"time"

	"minnow/internal/graph"
	"minnow/internal/harness"
	"minnow/internal/kernels"
	"minnow/internal/stats"
)

// warmupSeed is the input of the fixed warm-up job every simulation
// set-up round runs (the simulator's default seed).
const warmupSeed = 42

// simSpec describes a simulation workload: one job runs every benchmark
// in benches on one input seed.
type simSpec struct {
	benches  []string
	threads  int
	sched    string
	prefetch bool
	inputs   int // distinct input seeds per run; jobs cycle through them
	rounds   int // set-up rounds
}

func ssspMinnow64(tiny bool) simSpec {
	s := simSpec{benches: []string{"SSSP"}, threads: 64, sched: "minnow", prefetch: true, inputs: 8, rounds: 3}
	if tiny {
		s.threads, s.inputs, s.rounds = 4, 2, 1
	}
	return s
}

func suiteOBIM16(tiny bool) simSpec {
	s := simSpec{benches: []string{"SSSP", "BFS", "G500", "CC", "PR", "TC", "BC"}, threads: 16, sched: "obim", inputs: 8, rounds: 3}
	if tiny {
		s.threads, s.inputs, s.rounds = 2, 2, 1
	}
	return s
}

// jobKey names one simulated run for the pin table.
func jobKey(bench string, threads int, sched string, prefetch bool, seed uint64) string {
	pf := ""
	if prefetch {
		pf = "+pf"
	}
	return fmt.Sprintf("%s/t%d/%s%s/seed=%d", bench, threads, sched, pf, seed)
}

// simJob is one finished job.
type simJob struct {
	input int
	wall  time.Duration // harness.Run plus summary hashing, summed over benches
	hash  time.Duration
	sums  []stats.RunSummary
}

// runJob simulates every benchmark of the workload on one input seed,
// verifying each result against the kernel's reference and the pins.
// Each simulation counts as one attempted operation.
func (w simSpec) runJob(o options, m *measurement, seed uint64, id int, traced bool) (simJob, bool) {
	j := simJob{}
	ok := true
	for _, bench := range w.benches {
		m.attempt()
		spec, err := kernels.SpecByName(bench)
		if err != nil {
			m.fail(o, "%v", err)
			return j, false
		}
		t0 := time.Now()
		r, err := harness.Run(spec, harness.Options{Threads: w.threads, Seed: seed, Scheduler: w.sched, Prefetch: w.prefetch})
		t1 := time.Now()
		if err != nil {
			m.fail(o, "%s: %v", jobKey(bench, w.threads, w.sched, w.prefetch, seed), err)
			ok = false
			continue
		}
		s := r.Summary()
		h := s.Hash()
		t2 := time.Now()
		if traced {
			m.spans.addRange("harness.run", bench, id, t0, t1)
			m.spans.addRange("stats.hash", bench, id, t1, t2)
		}
		j.wall += t2.Sub(t0)
		j.hash += t2.Sub(t1)
		j.sums = append(j.sums, s)
		if !m.verify(o, jobKey(bench, w.threads, w.sched, w.prefetch, seed), s, h) {
			ok = false
		}
	}
	return j, ok
}

// inputSeed derives the seed of the run's i-th distinct input.
func (w simSpec) inputSeed(seed uint64, i int) uint64 {
	return splitmix(seed, "sim-input", i%w.inputs)
}

// phase runs jobs one at a time until the deadline has passed and at
// least minJobs jobs have run. Job indices continue from first, so a
// later phase keeps cycling through the same inputs. One job at a time
// leaves the second CPU to the Go runtime; on a shared two-CPU host, two
// concurrent jobs spread job_s and sim_mips 13-19% from run to run in one
// comparison, against 7-11% for one at a time.
func (w simSpec) phase(o options, m *measurement, seconds float64, first, minJobs int, traced bool) []simJob {
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	var jobs []simJob
	for i := first; i-first < minJobs || time.Now().Before(deadline); i++ {
		t := time.Now()
		j, ok := w.runJob(o, m, w.inputSeed(o.seed, i), i, traced)
		if traced {
			m.spans.add("job", "", i, t)
		}
		fmt.Fprintf(o.stderr, "perfbench: job %d (input %d) %.3fs\n", i, i%w.inputs, time.Since(t).Seconds())
		if ok {
			j.input = i % w.inputs
			jobs = append(jobs, j)
		}
	}
	return jobs
}

func runSim(o options, w simSpec, m *measurement) error {
	// Set-up: each round runs the fixed warm-up job (untimed for the
	// metrics below); setup_s is the median round.
	var setup []time.Duration
	start := processStart
	for r := 0; r < w.rounds; r++ {
		w.runJob(o, m, warmupSeed, -1-r, false) // a failure is counted and reported
		setup = append(setup, time.Since(start))
		start = time.Now()
	}

	// Untraced phase. It runs every input at least once, so sim_cycles
	// and l2_mpki cover the same set on every run of a seed; a traced run
	// spends half its time here only to time jobs without the profiler.
	untraced, minJobs := o.seconds, w.inputs
	if o.trace {
		untraced, minJobs = o.seconds/2, 1
	}
	mt := startMeter()
	jobs := w.phase(o, m, untraced, 0, minJobs, false)
	mt.stop()
	walls := make([]float64, len(jobs))
	var all, distinct agg
	seen := map[int]bool{}
	for i, j := range jobs {
		walls[i] = j.wall.Seconds()
		all.addJob(j.sums)
		if !seen[j.input] {
			seen[j.input] = true
			distinct.addJob(j.sums)
		}
	}
	m.e2e["job_s"] = median(walls)
	m.e2e["jobs_per_s"] = float64(len(jobs)) / mt.wall.Seconds()
	m.e2e["sim_mips"] = all.instrs / mt.cpu.Seconds() / 1e6
	m.e2e["sim_cycles"] = distinct.perJob(distinct.cycles)
	m.e2e["l2_mpki"] = distinct.l2mpki()
	m.finishCommon(setup, len(jobs), mt)
	if !o.trace {
		return nil
	}

	// harness.Run builds its input internally, so graph construction is
	// timed by separate Spec.Build calls. They run before the profiler
	// and the traced meter start, so neither counts work the program
	// never does, and their garbage is collected before then too.
	builds, err := w.timeBuilds(m, o.seed, len(jobs))
	if err != nil {
		return err
	}
	runtime.GC()

	// Traced half: the same job stream under the CPU profiler, with
	// spans around every call into the program.
	prof, err := startProfile()
	if err != nil {
		return err
	}
	tm := startMeter()
	tjobs := w.phase(o, m, o.seconds/2, len(jobs), 1, true)
	tm.stop()
	shares, err := prof.stop(o)
	if err != nil {
		return err
	}
	var traced agg
	var twalls, hashes []float64
	for _, j := range tjobs {
		traced.addJob(j.sums)
		traced.wall += j.wall.Seconds()
		twalls = append(twalls, j.wall.Seconds())
		hashes = append(hashes, j.hash.Seconds()*1e3)
	}
	traced.layers(m.layer)
	shares.layers(m.layer)
	m.layer["graph.build_ms"] = median(builds)
	m.layer["stats.hash_ms"] = median(hashes)
	m.layer["runtime.gc_pct"] = 100 * tm.gcShare
	m.layer["runtime.mallocs_per_job"] = tm.allocObjects / float64(max(len(tjobs), 1))
	if traced.steps > 0 {
		m.layer["sim.ns_per_step"] = traced.wall * 1e9 / traced.steps
	}
	m.layer["trace.overhead_pct"] = overheadPct(median(twalls), m.e2e["job_s"])
	return nil
}

// timeBuilds times Spec.Build for every benchmark of the jobs first
// onwards, one job per distinct input, and returns each job's build time
// in ms.
func (w simSpec) timeBuilds(m *measurement, seed uint64, first int) ([]float64, error) {
	var out []float64
	for i := first; i < first+w.inputs; i++ {
		var total time.Duration
		for _, bench := range w.benches {
			spec, err := kernels.SpecByName(bench)
			if err != nil {
				return nil, err
			}
			t := time.Now()
			spec.Build(1, w.inputSeed(seed, i), graph.NewAddrSpace(), w.threads)
			total += time.Since(t)
			m.spans.add("graph.build", bench, i, t)
		}
		out = append(out, total.Seconds()*1e3)
	}
	return out, nil
}

// agg sums the work counts of a set of jobs.
type agg struct {
	jobs                                 int
	wall                                 float64 // host seconds, where the caller tracks it
	steps, instrs, cycles, work          float64
	cat                                  [4]float64
	l2acc, l2miss, l3miss, dram, inv     float64
	latSum, latCnt, noc, dramStall       float64
	prefetches, pfFills, pfUsed, pfWaste float64
	enqCyc, enqOps, deqCyc, deqOps       float64
}

// addJob adds one job made of the given runs.
func (a *agg) addJob(sums []stats.RunSummary) {
	a.jobs++
	for _, s := range sums {
		a.steps += float64(s.SimSteps)
		a.cycles += float64(s.WallCycles)
		a.work += float64(s.WorkItems)
		for _, c := range s.Cores {
			a.instrs += float64(c.Instrs)
			for k := range a.cat {
				a.cat[k] += float64(c.Cycles[k])
			}
			a.enqCyc += float64(c.EnqCycles)
			a.enqOps += float64(c.EnqOps)
			a.deqCyc += float64(c.DeqCycles)
			a.deqOps += float64(c.DeqOps)
		}
		a.l2acc += float64(s.L2.Accesses)
		a.l2miss += float64(s.L2.Misses)
		a.l3miss += float64(s.L3.Misses)
		a.dram += float64(s.DRAMReads)
		a.inv += float64(s.InvMsgs)
		for k := range s.LatByLevel {
			a.latSum += float64(s.LatByLevel[k])
			a.latCnt += float64(s.CntByLevel[k])
		}
		a.noc += float64(s.NoCStall)
		a.dramStall += float64(s.DRAMStall)
		for _, e := range s.Engines {
			a.prefetches += float64(e.Prefetches)
		}
		a.pfFills += float64(s.L2.PrefetchFills)
		a.pfUsed += float64(s.L2.PrefetchUsed)
		a.pfWaste += float64(s.L2.PrefetchWaste)
	}
}

func (a *agg) perJob(v float64) float64 { return v / float64(max(a.jobs, 1)) }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func (a *agg) l2mpki() float64 { return 1000 * ratio(a.l2miss, a.instrs) }

// layers fills the per-layer work counts, per job.
func (a *agg) layers(out map[string]float64) {
	out["sim.steps"] = a.perJob(a.steps)
	out["cpu.instrs"] = a.perJob(a.instrs)
	var tot float64
	for _, v := range a.cat {
		tot += v
	}
	for k, name := range []string{"cpu.useful_pct", "cpu.worklist_pct", "cpu.load_miss_pct", "cpu.store_miss_pct"} {
		out[name] = 100 * ratio(a.cat[k], tot)
	}
	out["mem.l2_accesses"] = a.perJob(a.l2acc)
	out["mem.l2_misses"] = a.perJob(a.l2miss)
	out["mem.l3_misses"] = a.perJob(a.l3miss)
	out["mem.dram_reads"] = a.perJob(a.dram)
	out["mem.inv_msgs"] = a.perJob(a.inv)
	out["mem.avg_load_lat_cyc"] = ratio(a.latSum, a.latCnt)
	out["noc.stall_cyc"] = a.perJob(a.noc)
	out["dram.stall_cyc"] = a.perJob(a.dramStall)
	out["core.prefetches"] = a.perJob(a.prefetches)
	out["core.pf_fills"] = a.perJob(a.pfFills)
	out["core.pf_used"] = a.perJob(a.pfUsed)
	out["core.pf_waste"] = a.perJob(a.pfWaste)
	out["core.pf_accuracy"] = ratio(a.pfUsed, a.pfFills)
	out["worklist.enq_cyc"] = ratio(a.enqCyc, a.enqOps)
	out["worklist.deq_cyc"] = ratio(a.deqCyc, a.deqOps)
	out["galois.work_items"] = a.perJob(a.work)
}
