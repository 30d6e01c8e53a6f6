package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// defaultSeed is the workload seed whose job results are pinned in
// pins.json.
const defaultSeed = 1

// processStart approximates the process start; the first set-up round
// and the span clock count from it.
var processStart = time.Now()

// options is one invocation of the benchmark.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	tiny     bool      // smoke-test sizes, set only by the smoke test
	pins     pinSet    // pinned job digests checked against every job
	scratch  string    // directory for server state, profiles and spans
	stdout   io.Writer // the provenance line
	stderr   io.Writer // progress and failure reports
}

// result is the benchmark's last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	flag.Uint64Var(&o.seed, "seed", defaultSeed, "workload seed; job inputs are derived from it")
	flag.Float64Var(&o.seconds, "seconds", 20, "length of the timed phase in seconds")
	traceFlag := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
	pinsOut := flag.String("pins-out", "", "merge this run's job digests into the given pin file and exit 0 if every job verified")
	flag.Parse()
	o.trace = *traceFlag == 1
	o.stdout, o.stderr = os.Stdout, os.Stderr
	o.scratch = os.Getenv("PERFBENCH_SCRATCH")
	if o.scratch == "" {
		o.scratch = ".bench_build"
	}
	pins, err := loadPins()
	if err != nil {
		fatal(err)
	}
	o.pins = pins

	res, observed, err := run(o)
	if err != nil {
		fatal(err)
	}
	if *pinsOut != "" {
		if !res.Correct {
			fatal(errors.New("not writing pins: the run had failures"))
		}
		if err := mergePins(*pinsOut, observed); err != nil {
			fatal(err)
		}
	}
	b, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// workloads maps each workload name to its implementation.
var workloads = map[string]func(o options, m *measurement) error{
	"sssp-minnow64": func(o options, m *measurement) error { return runSim(o, ssspMinnow64(o.tiny), m) },
	"suite-obim16":  func(o options, m *measurement) error { return runSim(o, suiteOBIM16(o.tiny), m) },
	"svc-mix":       runSvc,
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// run executes one workload and assembles the result line. It also
// returns the digests of every job the run verified, for -pins-out.
func run(o options) (result, pinSet, error) {
	fn, ok := workloads[o.workload]
	if !ok {
		return result{}, nil, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if o.seconds <= 0 {
		return result{}, nil, fmt.Errorf("-seconds must be positive, got %v", o.seconds)
	}
	if err := os.MkdirAll(o.scratch, 0o755); err != nil {
		return result{}, nil, err
	}
	m := newMeasurement(o)
	host := readHost()
	if err := fn(o, m); err != nil {
		return result{}, nil, err
	}
	host.finish()
	b, _ := json.Marshal(host)
	fmt.Fprintf(o.stdout, "provenance %s\n", b)
	fmt.Fprintf(o.stderr, "perfbench: %s seed=%d attempted=%d failed=%d\n", o.workload, o.seed, m.attempted, m.failed)

	m.layer["failed_frac"] = float64(m.failed) / float64(max(m.attempted, 1))
	res := result{
		Correct:   m.failed == 0 && m.attempted > 0,
		Attempted: m.attempted,
		Failed:    m.failed,
		Metrics:   map[string]metric{},
	}
	if o.trace {
		if m.spans != nil {
			if err := m.spans.write(filepath.Join(o.scratch, fmt.Sprintf("spans-%s-%d.json", o.workload, o.seed))); err != nil {
				return result{}, nil, err
			}
		}
		for _, d := range perLayer {
			res.Metrics[d.name] = metric{Value: m.layer[d.name], Unit: d.unit}
		}
	} else {
		for _, d := range endToEnd {
			v, ok := m.e2e[d.name]
			if !ok {
				return result{}, nil, fmt.Errorf("workload %s did not measure %s", o.workload, d.name)
			}
			res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
		}
	}
	return res, m.observed, nil
}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the untraced run's metrics; BENCHMARK.json carries the
// same names with their bounds.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"job_s", "s"},
	{"jobs_per_s", "1/s"},
	{"sim_mips", "Minstr/s"},
	{"sim_cycles", "cycles"},
	{"l2_mpki", "1/kinstr"},
	{"alloc_mb", "MB"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the traced run's metrics. Every workload reports all
// of them; a layer a workload does not exercise reads 0.
var perLayer = []metricDef{
	// Phases of a job, timed around the benchmark's own calls or taken
	// from the CPU profile.
	{"graph.build_ms", "ms"},
	{"kernels.verify_pct", "%"},
	{"sim.run_pct", "%"},
	{"stats.hash_ms", "ms"},
	// Self time per module, as a share of all CPU profile samples.
	{"sim.self_pct", "%"},
	{"core.self_pct", "%"},
	{"mem.self_pct", "%"},
	{"cpu.self_pct", "%"},
	{"tlb.self_pct", "%"},
	{"bpred.self_pct", "%"},
	{"noc.self_pct", "%"},
	{"dram.self_pct", "%"},
	{"uops.self_pct", "%"},
	{"galois.self_pct", "%"},
	{"worklist.self_pct", "%"},
	{"graph.self_pct", "%"},
	{"runtime.map_pct", "%"},
	{"runtime.gc_pct", "%"},
	{"runtime.mallocs_per_job", "count"},
	// Work counts from each job's summary, per job.
	{"sim.steps", "count"},
	{"sim.ns_per_step", "ns"},
	{"cpu.instrs", "count"},
	{"cpu.useful_pct", "%"},
	{"cpu.worklist_pct", "%"},
	{"cpu.load_miss_pct", "%"},
	{"cpu.store_miss_pct", "%"},
	{"mem.l2_accesses", "count"},
	{"mem.l2_misses", "count"},
	{"mem.l3_misses", "count"},
	{"mem.dram_reads", "count"},
	{"mem.inv_msgs", "count"},
	{"mem.avg_load_lat_cyc", "cycles"},
	{"noc.stall_cyc", "cycles"},
	{"dram.stall_cyc", "cycles"},
	{"core.prefetches", "count"},
	{"core.pf_fills", "count"},
	{"core.pf_used", "count"},
	{"core.pf_waste", "count"},
	{"core.pf_accuracy", "ratio"},
	{"worklist.enq_cyc", "cycles"},
	{"worklist.deq_cyc", "cycles"},
	{"galois.work_items", "count"},
	// The service layer (svc-mix).
	{"service.hit_ms", "ms"},
	{"service.hit_p99_ms", "ms"},
	{"service.hit_count", "count"},
	{"service.miss_ms", "ms"},
	{"service.miss_p90_ms", "ms"},
	{"service.miss_count", "count"},
	{"service.queue_wait_ms", "ms"},
	{"service.exec_ms", "ms"},
	{"service.cache_write_ms", "ms"},
	{"service.journal_bytes", "bytes"},
	{"service.http_pct", "%"},
	{"service.key_pct", "%"},
	{"service.self_pct", "%"},
	{"service.hit_ratio", "ratio"},
	{"service.conflicts", "count"},
	// The correctness gate and the cost of tracing itself.
	{"failed_frac", "ratio"},
	{"trace.overhead_pct", "%"},
}

// measurement collects what a workload measured.
type measurement struct {
	mu                sync.Mutex
	attempted, failed int
	e2e               map[string]float64
	layer             map[string]float64
	spans             *spanLog // traced runs only
	observed          pinSet   // digests of the jobs that verified
}

func newMeasurement(o options) *measurement {
	m := &measurement{e2e: map[string]float64{}, layer: map[string]float64{}, observed: pinSet{}}
	if o.trace {
		m.spans = &spanLog{}
	}
	return m
}

// attempt counts one attempted operation.
func (m *measurement) attempt() {
	m.mu.Lock()
	m.attempted++
	m.mu.Unlock()
}

// fail records a failed operation with its reason.
func (m *measurement) fail(o options, format string, args ...any) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.failLocked(o, format, args...)
}

func (m *measurement) failLocked(o options, format string, args ...any) {
	m.failed++
	fmt.Fprintf(o.stderr, "perfbench: FAIL "+format+"\n", args...)
}

// finishCommon fills the metrics every workload reports the same way:
// setup holds the set-up rounds, timed the untraced phase's meter and
// ops its operation count.
func (m *measurement) finishCommon(setup []time.Duration, ops int, timed meter) {
	m.e2e["setup_s"] = median(durSeconds(setup))
	m.e2e["alloc_mb"] = timed.allocBytes / float64(max(ops, 1)) / 1e6
	m.e2e["peak_rss_mb"] = peakRSSMB()
}

// meter measures one phase from outside the program: wall time, process
// CPU time, Go heap allocation and GC CPU.
type meter struct {
	start                    time.Time
	cpu0                     time.Duration
	m0                       []metrics.Sample
	wall, cpu                time.Duration
	allocBytes, allocObjects float64
	gcShare                  float64 // GC CPU / total Go CPU
}

var meterSamples = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readSamples() []metrics.Sample {
	s := make([]metrics.Sample, len(meterSamples))
	for i, n := range meterSamples {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

func sampleValue(s metrics.Sample) float64 {
	switch s.Value.Kind() {
	case metrics.KindUint64:
		return float64(s.Value.Uint64())
	case metrics.KindFloat64:
		return s.Value.Float64()
	}
	return 0
}

func startMeter() meter {
	return meter{start: time.Now(), cpu0: processCPU(), m0: readSamples()}
}

func (mt *meter) stop() {
	mt.wall = time.Since(mt.start)
	mt.cpu = processCPU() - mt.cpu0
	m1 := readSamples()
	d := func(i int) float64 { return sampleValue(m1[i]) - sampleValue(mt.m0[i]) }
	mt.allocBytes, mt.allocObjects = d(0), d(1)
	if tot := d(3); tot > 0 {
		mt.gcShare = d(2) / tot
	}
}

// processCPU is the process's user+system CPU time (getrusage).
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size (getrusage, KiB on
// Linux) in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6
}

// hostInfo is the run's provenance: enough to tell a drifted set of runs
// caused by the host from one caused by the program. Reported, not gated.
type hostInfo struct {
	NumCPU     int       `json:"num_cpu"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	GoVersion  string    `json:"go_version"`
	StealStart float64   `json:"steal_ticks_start"`
	StealEnd   float64   `json:"steal_ticks_end"`
	StealPct   float64   `json:"steal_pct"`
	LoadStart  []float64 `json:"loadavg_start"`
	LoadEnd    []float64 `json:"loadavg_end"`
	// ProbeStart and ProbeEnd time a fixed integer loop that touches no
	// memory, in ms: how fast the host ran the same work before and
	// after the run.
	ProbeStart float64 `json:"probe_ms_start"`
	ProbeEnd   float64 `json:"probe_ms_end"`
	total0     float64
}

// probeSink keeps the probe loop from being optimised away.
var probeSink uint64

func probeMS() float64 {
	t := time.Now()
	h := uint64(1)
	for i := 0; i < 50_000_000; i++ {
		h = h*6364136223846793005 + 1442695040888963407
	}
	probeSink += h
	return time.Since(t).Seconds() * 1e3
}

func readHost() hostInfo {
	h := hostInfo{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
	h.StealStart, h.total0 = readSteal()
	h.LoadStart = readLoadavg()
	h.ProbeStart = probeMS()
	return h
}

func (h *hostInfo) finish() {
	var total float64
	h.StealEnd, total = readSteal()
	h.LoadEnd = readLoadavg()
	h.ProbeEnd = probeMS()
	if dt := total - h.total0; dt > 0 {
		h.StealPct = 100 * (h.StealEnd - h.StealStart) / dt
	}
}

// readSteal returns the steal and total ticks of /proc/stat's cpu line.
func readSteal() (steal, total float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	for i, s := range f[1:] {
		var v float64
		fmt.Sscan(s, &v)
		total += v
		if i == 7 { // user nice system idle iowait irq softirq steal
			steal = v
		}
	}
	return steal, total
}

func readLoadavg() []float64 {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return nil
	}
	f := strings.Fields(string(b))
	out := make([]float64, 0, 3)
	for _, s := range f[:min(3, len(f))] {
		var v float64
		fmt.Sscan(s, &v)
		out = append(out, v)
	}
	return out
}

func durSeconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// median returns the middle value (mean of the middle two), 0 if empty.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// overheadPct is how much slower (in %) the traced half ran than the
// untraced half, 0 when the untraced half completed nothing.
func overheadPct(traced, untraced float64) float64 {
	if untraced == 0 {
		return 0
	}
	return 100 * (traced/untraced - 1)
}

// percentile returns the nearest-rank p-th percentile, 0 if empty.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	rank := int(p/100*float64(len(s))+0.999999) - 1
	return s[min(max(rank, 0), len(s)-1)]
}

// splitmix derives a well-mixed 64-bit value from a seed, a domain tag
// and an index; job inputs are derived from the workload seed this way.
func splitmix(seed uint64, domain string, i int) uint64 {
	z := seed + 0x9e3779b97f4a7c15*uint64(i+1)
	for _, c := range domain {
		z = (z ^ uint64(c)) * 0x100000001b3
	}
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1 // 0 selects the simulator's default seed
	}
	return z
}
