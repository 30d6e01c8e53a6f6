package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"minnow/internal/service"
	"minnow/internal/stats"
)

// shape is a small job's benchmark and simulated core count.
type shape struct {
	bench   string
	threads int
}

// svcSpec describes the svc-mix workload.
type svcSpec struct {
	warm      []shape // the hit set, warmed in every set-up round
	miss      []shape // fresh jobs cycle through these shapes
	missEvery int     // one submission in missEvery is a miss
	exact     int     // misses that form the exact sim_cycles/l2_mpki set
	rounds    int     // set-up rounds
}

func svcMix(tiny bool) svcSpec {
	s := svcSpec{
		warm: []shape{{"SSSP", 2}, {"BFS", 1}, {"CC", 2}, {"PR", 1}},
		// Three shapes, so the median miss falls inside the middle one
		// rather than on the boundary between two.
		miss:      []shape{{"SSSP", 1}, {"BFS", 2}, {"CC", 4}},
		missEvery: 10,
		exact:     12,
		rounds:    3,
	}
	if tiny {
		s.warm, s.exact, s.rounds = s.warm[:2], 3, 1
	}
	return s
}

func (s shape) spec(seed uint64) service.JobSpec {
	return service.JobSpec{Bench: s.bench, Config: service.ConfigSpec{Threads: s.threads, Seed: seed}}
}

func (s shape) key(seed uint64) string { return jobKey(s.bench, s.threads, "obim", false, seed) }

// svcServer is an in-process minnowd behind loopback HTTP, with a disk
// cache and a journal in a fresh directory.
type svcServer struct {
	dir     string
	srv     *service.Server
	hs      *http.Server
	base    string
	served  chan error
	journal string
}

func startServer(o options) (*svcServer, error) {
	dir, err := os.MkdirTemp(o.scratch, "svc-")
	if err != nil {
		return nil, err
	}
	s := &svcServer{dir: dir, journal: filepath.Join(dir, "journal.jsonl"), served: make(chan error, 1)}
	s.srv, err = service.New(service.Config{Shards: 1, CacheDir: filepath.Join(dir, "cache"), JournalPath: s.journal})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.srv.Shutdown(context.Background())
		os.RemoveAll(dir)
		return nil, err
	}
	s.base = "http://" + ln.Addr().String()
	s.hs = &http.Server{Handler: s.srv.Handler()}
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, nil
}

// close stops the HTTP server and the service, waits for both, and
// removes the server's directory.
func (s *svcServer) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	err = errors.Join(err, s.srv.Shutdown(ctx), os.RemoveAll(s.dir))
	return err
}

// scrape reads the counters the benchmark gates on from GET /metrics:
// every unlabeled sample, plus labeled histogram sums and counts added
// up under their bare names.
func (s *svcServer) scrape(c *client) (map[string]float64, error) {
	resp, err := c.hc.Get(s.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		name := line[:i]
		if j := strings.IndexByte(name, '{'); j >= 0 {
			name = name[:j]
		}
		out[name] += v
	}
	return out, sc.Err()
}

// client is one closed-loop client with its own connection.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1},
		Timeout:   120 * time.Second,
	}}
}

func (c *client) closeIdle() { c.hc.CloseIdleConnections() }

// submit posts a job and returns its view and HTTP status.
func (c *client) submit(spec service.JobSpec) (service.JobView, int, error) {
	var v service.JobView
	body, err := json.Marshal(spec)
	if err != nil {
		return v, 0, err
	}
	resp, err := c.hc.Post(c.base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return v, 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return v, resp.StatusCode, err
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return v, resp.StatusCode, fmt.Errorf("POST /jobs: %s: %s", resp.Status, bytes.TrimSpace(b))
	}
	return v, resp.StatusCode, json.Unmarshal(b, &v)
}

// await follows GET /jobs/{id}/stream until its terminal "done" event
// and returns the final view.
func (c *client) await(id string) (service.JobView, error) {
	var v service.JobView
	resp, err := c.hc.Get(c.base + "/jobs/" + id + "/stream")
	if err != nil {
		return v, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return v, fmt.Errorf("GET /jobs/%s/stream: %s", id, resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: ") && event == "done":
			return v, json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &v)
		}
	}
	if err := sc.Err(); err != nil {
		return v, err
	}
	return v, fmt.Errorf("stream for job %s ended without a done event", id)
}

// checkDone verifies a finished job: status done, a summary whose hash is
// the reported one, and agreement with the pins. It returns the summary.
func checkDone(o options, m *measurement, key string, v service.JobView) (stats.RunSummary, time.Duration, bool) {
	var s stats.RunSummary
	if v.Status != service.StatusDone {
		m.fail(o, "%s: job %s ended %s: %s", key, v.ID, v.Status, v.Error)
		return s, 0, false
	}
	if err := json.Unmarshal(v.Summary, &s); err != nil {
		m.fail(o, "%s: job %s summary: %v", key, v.ID, err)
		return s, 0, false
	}
	t := time.Now()
	h := s.Hash()
	dt := time.Since(t)
	if h != v.SummaryHash {
		m.fail(o, "%s: job %s summary hashes to %.12s, service reported %.12s", key, v.ID, h, v.SummaryHash)
		return s, dt, false
	}
	return s, dt, m.verify(o, key, s, h)
}

// svcOp is one timed submission.
type svcOp struct {
	miss    bool
	missIdx int
	lat     time.Duration // send to response (hit) or to the done event (miss)
	queue   time.Duration // server stamps, misses only
	exec    time.Duration
	hash    time.Duration
	sum     stats.RunSummary
	ok      bool
}

type svcRun struct {
	spec      svcSpec
	srv       *svcServer
	warmSeeds []uint64
	warmHash  []string
}

// warm submits the hit set and waits for every result.
func (r *svcRun) warm(o options, m *measurement, c *client) error {
	r.warmHash = make([]string, len(r.spec.warm))
	ids := make([]string, len(r.spec.warm))
	for i, sh := range r.spec.warm {
		m.attempt()
		v, _, err := c.submit(sh.spec(r.warmSeeds[i]))
		if err != nil {
			return err
		}
		ids[i] = v.ID
	}
	for i, sh := range r.spec.warm {
		v, err := c.await(ids[i])
		if err != nil {
			return err
		}
		if _, _, ok := checkDone(o, m, sh.key(r.warmSeeds[i]), v); ok {
			r.warmHash[i] = v.SummaryHash
		}
	}
	return nil
}

// op performs submission k of the fixed mix.
func (r *svcRun) op(o options, m *measurement, c *client, k int, traced bool) svcOp {
	sp := r.spec
	op := svcOp{miss: k%sp.missEvery == sp.missEvery-1, missIdx: k / sp.missEvery}
	var (
		sh   shape
		seed uint64
		hit  int
	)
	if op.miss {
		sh = sp.miss[op.missIdx%len(sp.miss)]
		seed = splitmix(o.seed, "svc-miss", op.missIdx)
	} else {
		hit = int(splitmix(o.seed, "svc-hit", k) % uint64(len(sp.warm)))
		sh, seed = sp.warm[hit], r.warmSeeds[hit]
	}
	key := sh.key(seed)
	m.attempt()
	t0 := time.Now()
	v, code, err := c.submit(sh.spec(seed))
	t1 := time.Now()
	if traced {
		m.spans.addRange("http.post", sh.bench, k, t0, t1)
	}
	if err != nil {
		m.fail(o, "%s: %v", key, err)
		return op
	}
	if !op.miss {
		op.lat = t1.Sub(t0)
		if traced {
			m.spans.addRange("request", "hit", k, t0, t1)
		}
		switch {
		case code != http.StatusOK || v.Status != service.StatusDone:
			m.fail(o, "%s: resubmission of a warmed key was not a cache hit (HTTP %d, %s)", key, code, v.Status)
		case v.SummaryHash != r.warmHash[hit]:
			m.fail(o, "%s: cache hit hash %.12s differs from its warm-up result %.12s", key, v.SummaryHash, r.warmHash[hit])
		default:
			op.ok = true
		}
		return op
	}
	if code != http.StatusAccepted {
		m.fail(o, "%s: fresh key was answered without simulating (HTTP %d)", key, code)
		return op
	}
	v, err = c.await(v.ID)
	t2 := time.Now()
	if traced {
		m.spans.addRange("http.stream", sh.bench, k, t1, t2)
		m.spans.addRange("request", "miss", k, t0, t2)
	}
	if err != nil {
		m.fail(o, "%s: %v", key, err)
		return op
	}
	op.lat = t2.Sub(t0)
	op.queue = time.Duration(v.StartedAtNS - v.QueuedAtNS)
	op.exec = time.Duration(v.DoneAtNS - v.StartedAtNS)
	op.sum, op.hash, op.ok = checkDone(o, m, key, v)
	return op
}

// phase runs the two closed-loop clients from submission first until the
// deadline has passed and at least minOps submissions were issued.
func (r *svcRun) phase(o options, m *measurement, seconds float64, first, minOps int, traced bool) []svcOp {
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	var (
		mu   sync.Mutex
		next = first
		ops  []svcOp
		wg   sync.WaitGroup
	)
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient(r.srv.base)
			defer c.closeIdle()
			for {
				mu.Lock()
				k := next
				if k-first >= minOps && !time.Now().Before(deadline) {
					mu.Unlock()
					return
				}
				next++
				mu.Unlock()
				op := r.op(o, m, c, k, traced)
				mu.Lock()
				ops = append(ops, op)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return ops
}

// svcStats splits a phase's submissions into hits and misses.
type svcStats struct {
	lats, hits, misses, queue, exec, hashes []float64 // ms
	done                                    int
	all                                     agg
	execSum                                 float64 // seconds
}

func summarize(ops []svcOp) svcStats {
	var s svcStats
	for _, op := range ops {
		if !op.ok {
			continue
		}
		s.done++
		s.lats = append(s.lats, ms(op.lat))
		if !op.miss {
			s.hits = append(s.hits, ms(op.lat))
			continue
		}
		s.misses = append(s.misses, ms(op.lat))
		s.queue = append(s.queue, ms(op.queue))
		s.exec = append(s.exec, ms(op.exec))
		s.hashes = append(s.hashes, ms(op.hash))
		s.all.addJob([]stats.RunSummary{op.sum})
		s.execSum += op.exec.Seconds()
	}
	return s
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }

func runSvc(o options, m *measurement) error {
	sp := svcMix(o.tiny)
	r := &svcRun{spec: sp}
	for i := range sp.warm {
		r.warmSeeds = append(r.warmSeeds, splitmix(o.seed, "svc-warm", i))
	}

	// Set-up: each round starts a fresh server and warms the hit set;
	// the last round's server takes the timed load.
	var setup []time.Duration
	start := processStart
	for round := 0; round < sp.rounds; round++ {
		srv, err := startServer(o)
		if err != nil {
			return err
		}
		c := newClient(srv.base)
		err = r.warm(o, m, c)
		c.closeIdle()
		setup = append(setup, time.Since(start))
		if err != nil {
			srv.close()
			return err
		}
		if round == sp.rounds-1 {
			r.srv = srv
			break
		}
		if err := srv.close(); err != nil {
			return err
		}
		start = time.Now()
	}
	defer r.srv.close()
	for i, h := range r.warmHash {
		if h == "" {
			return fmt.Errorf("warm-up of %s failed", sp.warm[i].key(r.warmSeeds[i]))
		}
	}
	admin := newClient(r.srv.base)
	defer admin.closeIdle()

	untraced := o.seconds
	if o.trace {
		untraced = o.seconds / 2
	}
	mt := startMeter()
	ops := r.phase(o, m, untraced, 0, sp.exact*sp.missEvery, false)
	mt.stop()
	st := summarize(ops)
	var exact agg
	for _, op := range ops {
		if op.ok && op.miss && op.missIdx < sp.exact {
			exact.addJob([]stats.RunSummary{op.sum})
		}
	}
	// job_s is the median over all submissions, so with nine hits in ten
	// it is a hit's latency; the misses' cost shows in jobs_per_s and
	// sim_mips, and per layer in service.miss_ms.
	m.e2e["job_s"] = median(st.lats) / 1e3
	m.e2e["jobs_per_s"] = float64(st.done) / mt.wall.Seconds()
	m.e2e["sim_mips"] = st.all.instrs / mt.cpu.Seconds() / 1e6
	m.e2e["sim_cycles"] = exact.perJob(exact.cycles)
	m.e2e["l2_mpki"] = exact.l2mpki()
	m.finishCommon(setup, len(ops), mt)

	if o.trace {
		if err := r.traced(o, m, admin, len(ops), median(st.hits)); err != nil {
			return err
		}
	}
	met, err := r.srv.scrape(admin)
	if err != nil {
		return fmt.Errorf("scrape /metrics: %w", err)
	}
	m.layer["service.conflicts"] = met["minnowd_cache_conflicts_total"]
	m.attempt() // the end-of-run determinism gate
	if n := met["minnowd_cache_conflicts_total"] + met["minnowd_journal_errors_total"]; n != 0 {
		m.fail(o, "minnowd reported %v cache conflicts and %v journal errors; both must be 0",
			met["minnowd_cache_conflicts_total"], met["minnowd_journal_errors_total"])
	}
	return nil
}

// traced runs the second half of a traced run under the CPU profiler and
// fills the per-layer metrics.
func (r *svcRun) traced(o options, m *measurement, admin *client, first int, untracedHitMS float64) error {
	before, err := r.srv.scrape(admin)
	if err != nil {
		return err
	}
	j0 := fileSize(r.srv.journal)
	prof, err := startProfile()
	if err != nil {
		return err
	}
	tm := startMeter()
	ops := r.phase(o, m, o.seconds/2, first, 1, true)
	tm.stop()
	sh, err := prof.stop(o)
	if err != nil {
		return err
	}
	after, err := r.srv.scrape(admin)
	if err != nil {
		return err
	}
	st := summarize(ops)
	st.all.layers(m.layer)
	sh.layers(m.layer)
	n := float64(max(len(ops), 1))
	m.layer["service.hit_ms"] = median(st.hits)
	m.layer["service.hit_p99_ms"] = percentile(st.hits, 99)
	m.layer["service.hit_count"] = float64(len(st.hits))
	m.layer["service.miss_ms"] = median(st.misses)
	m.layer["service.miss_p90_ms"] = percentile(st.misses, 90)
	m.layer["service.miss_count"] = float64(len(st.misses))
	m.layer["service.queue_wait_ms"] = median(st.queue)
	m.layer["service.exec_ms"] = median(st.exec)
	m.layer["service.cache_write_ms"] = 1e3 * ratio(
		after["minnowd_cache_write_seconds_sum"]-before["minnowd_cache_write_seconds_sum"],
		after["minnowd_cache_write_seconds_count"]-before["minnowd_cache_write_seconds_count"])
	m.layer["service.journal_bytes"] = float64(fileSize(r.srv.journal)-j0) / n
	m.layer["service.hit_ratio"] = ratio(float64(len(st.hits)), float64(len(st.hits)+len(st.misses)))
	m.layer["stats.hash_ms"] = median(st.hashes)
	m.layer["runtime.gc_pct"] = 100 * tm.gcShare
	m.layer["runtime.mallocs_per_job"] = tm.allocObjects / n
	if st.all.steps > 0 {
		m.layer["sim.ns_per_step"] = st.execSum * 1e9 / st.all.steps
	}
	m.layer["trace.overhead_pct"] = overheadPct(median(st.hits), untracedHitMS)
	return nil
}

func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}
