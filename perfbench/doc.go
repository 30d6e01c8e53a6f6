// Command perfbench is the repository's end-to-end benchmark: it measures
// the host time people wait on when they run the simulator or the minnowd
// service, layer by layer, and checks every result it produces.
//
// Everything is measured from outside the program. The benchmark times
// its own calls into public functions (harness.Run, kernels.Spec.Build,
// stats.RunSummary.Hash and minnowd's HTTP API), reads the deterministic
// counters those calls return, and samples a CPU profile of its own
// process. No code under internal/ is instrumented for it.
//
// # Running
//
// From the repository root, with the Go toolchain on PATH:
//
//	bash perfbench/run.sh --workload sssp-minnow64 --seed 1 --seconds 20 --trace 0
//
// run.sh builds the benchmark from the checkout's sources (module
// minnow/perfbench, which replaces module minnow with the parent
// directory) into .bench_build, or $CARGO_TARGET_DIR when set, and keeps
// the Go build cache and all scratch files there too. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": 31, "failed": 0, "metrics": {"job_s": {"value": 3.61, "unit": "s"}, ...}}
//
// A line starting with "provenance" before it records the host: num_cpu,
// GOMAXPROCS, the Go version, and CPU steal and load average from /proc at
// the start and end of the run. A set of runs that drifted can be traced
// to the host rather than the program with it. It is reported, not gated.
//
// With --trace 0 (the untraced run) the metrics are the end-to-end metrics
// listed in BENCHMARK.json. With --trace 1 the run spends the first half
// of --seconds untraced and the second half under runtime/pprof CPU
// profiling with spans around every call into the program, and reports
// the per-layer metrics instead. The spans (JSON) and the raw CPU profile
// are written to .bench_build/spans-<workload>-<seed>.json and
// cpu-<workload>-<seed>.pprof when the run ends; read the profile with
// go tool pprof. trace.overhead_pct compares the two halves. Between the
// halves, with the profiler off, the simulation workloads time
// kernels.Spec.Build once per distinct input for graph.build_ms, since
// harness.Run builds its input internally.
//
// The smoke test runs every workload at small sizes (fewer simulated
// cores, inputs and set-up rounds):
//
//	cd perfbench && go test
//
// # Workloads
//
// Each workload runs in one process with at most two threads of load
// (one per CPU of the two-CPU hosts it was tuned on): the simulation
// workloads run one job at a time, svc-mix runs two clients against one
// simulation shard. Job inputs are derived from --seed; the same seed
// gives the same inputs.
//
// sssp-minnow64: SSSP on the road-mesh input with 64 simulated cores,
// Minnow engines and worklist-directed prefetching, the paper's headline
// configuration (Fig. 16), on the default serial engine. A run cycles
// through 8 input seeds, one job each. Chosen
// because the Minnow engine (core), the prefetch-fill path in mem, the
// 8×8 noc and the sim event heap with 128 actors do the work, while the
// software worklist and graph generation do almost nothing.
//
// suite-obim16: one job is one pass of the seven Table-2 kernels (SSSP,
// BFS, G500, CC, PR, TC, BC) on software OBIM with 16 cores and no
// prefetching; a run cycles through 8 input seeds. Chosen because demand
// misses through cpu, mem and noc do the work, along with the Go-map
// coherence directory, seven graph generators including Kronecker and
// seven reference verifiers. There is no Minnow engine and the event
// heap is small, so a change to core or sim must leave this workload
// unchanged.
//
// svc-mix: an in-process minnowd (one worker shard) behind loopback HTTP,
// with a disk cache and an fsync'd journal in a fresh directory. Two
// closed-loop clients, one connection each, submit a fixed mix: nine in
// ten submissions resubmit one of four keys warmed during set-up and are
// cache hits; every tenth is a fresh small job (SSSP on 1 core, BFS on 2,
// CC on 4, in turn) that misses, so it queues, simulates, verifies,
// journals and writes the cache. Clients wait for a miss on
// /jobs/{id}/stream rather than by polling. Chosen because reads (hits)
// and writes (misses) of the service layer run side by side, so a change
// that speeds one up at the other's cost shows.
//
// # End-to-end metrics
//
// Every workload reports every end-to-end metric. A job is one simulated
// job, or one svc-mix submission.
//
//	setup_s      median of three set-up rounds: one warm-up job on a fixed
//	             input (simulation workloads), or a fresh server started and
//	             its hit set warmed (svc-mix). The first round also counts
//	             process start.
//	job_s        median host seconds per job: harness.Run plus hashing the
//	             summary; on svc-mix, send to response (hit) or to the
//	             terminal stream event (miss) over all submissions, which
//	             with nine hits in ten is a hit's latency.
//	jobs_per_s   completed jobs (svc-mix: submissions) per wall second.
//	sim_mips     simulated instructions retired per host CPU second
//	             (getrusage user+sys) over the timed phase.
//	sim_cycles   simulated cycles per job over the run's fixed input set
//	             (svc-mix: its first twelve misses). Exact for a seed.
//	l2_mpki      demand L2 misses per 1000 instructions over the same set.
//	             Exact for a seed.
//	alloc_mb     Go heap MB allocated per job (svc-mix: per submission).
//	peak_rss_mb  peak resident set size of the process.
//
// On the simulation workloads jobs run one at a time, so jobs_per_s is
// close to 1/mean(job_s), and sim_mips is close to instructions per job
// over job_s, scaled by the run's CPU to wall time. They are not exact
// copies (a median against a mean, CPU against wall time), and the
// contract that every workload reports every metric forces them there.
// On svc-mix the three differ: job_s follows the hits, jobs_per_s and
// sim_mips mostly the misses, each of which simulates.
//
// The latencies of svc-mix's two request classes are split further in
// the per-layer metrics (service.hit_ms, service.miss_ms). Failures are
// counted in the result's attempted/failed fields and, per layer, as
// failed_frac.
//
// # Per-layer metrics
//
// Each entry names the end-to-end metric it should move and on which
// workload. Self time is the CPU profile's samples whose leaf function is
// in the module, as a share of all samples.
//
//	graph.build_ms        setup_s, job_s @suite-obim16; small @sssp-minnow64
//	kernels.verify_pct    job_s, alloc_mb @suite-obim16
//	sim.run_pct           sim_mips @sssp-minnow64, @suite-obim16
//	stats.hash_ms         job_s
//	sim.self_pct, core.self_pct
//	                      sim_mips @sssp-minnow64; unchanged @suite-obim16
//	mem, cpu, tlb, bpred, noc, dram, uops, galois, worklist .self_pct
//	                      sim_mips @sssp-minnow64, @suite-obim16
//	runtime.map_pct       sim_mips, mostly @suite-obim16
//	graph.self_pct        setup_s @suite-obim16
//	runtime.gc_pct, runtime.mallocs_per_job
//	                      alloc_mb, sim_mips
//	sim.steps, sim.ns_per_step
//	                      sim_mips
//	cpu.instrs, cpu.{useful,worklist,load_miss,store_miss}_pct
//	                      sim_cycles
//	mem.{l2_accesses,l2_misses,l3_misses,dram_reads,inv_msgs,avg_load_lat_cyc}
//	                      l2_mpki, sim_cycles
//	noc.stall_cyc, dram.stall_cyc
//	                      sim_cycles
//	core.{prefetches,pf_fills,pf_used,pf_waste,pf_accuracy}
//	                      l2_mpki @sssp-minnow64; zero @suite-obim16
//	worklist.enq_cyc, worklist.deq_cyc
//	                      sim_cycles @suite-obim16
//	galois.work_items     sim_cycles
//	service.{miss_ms,queue_wait_ms,exec_ms,cache_write_ms,journal_bytes}
//	                      jobs_per_s, sim_mips @svc-mix
//	service.{hit_ms,http_pct,key_pct,self_pct}
//	                      job_s, alloc_mb @svc-mix
//	service.hit_p99_ms with service.hit_count, service.miss_p90_ms with
//	service.miss_count    reported, not gated
//	service.hit_ratio     jobs_per_s @svc-mix (fixed by the mix)
//	service.conflicts     failed_frac @svc-mix
//	failed_frac           the correctness gate below
//	trace.overhead_pct    traced job_s (svc-mix: service.hit_ms) against
//	                      the untraced half
//
// A layer a workload does not exercise reads 0: the service metrics on the
// simulation workloads, the core prefetch counters on suite-obim16.
//
// # Correctness
//
// Every job runs with reference verification on, and its summary hash is
// compared with pins.json, which pins every job of the default seed (1)
// and the fixed warm-up jobs. A mismatch fails the job and prints the
// headline fields of both summaries that differ (cycles, MPKI, work
// items, misses). A job whose input already ran earlier in the process
// must reproduce that hash too. In svc-mix every hit must return its
// warm-up result's hash, each miss's summary must hash to the hash the
// service reports, the warm-up results must agree across set-up rounds,
// and minnowd_cache_conflicts_total and minnowd_journal_errors_total must
// read 0 at the end. Any failure makes correct false.
//
// # What the numbers are not
//
// The simulated machine is not validated against hardware, so no error
// figure against real Minnow hardware is given; sim_cycles and l2_mpki
// are the model's outputs, pinned to catch unintended change. The
// modelled caches start empty in every job, so each job includes its
// cold-start misses.
package main
