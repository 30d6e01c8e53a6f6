package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"sync"
	"time"
)

// profiler samples the benchmark process's CPU with runtime/pprof.
type profiler struct{ buf bytes.Buffer }

func startProfile() (*profiler, error) {
	p := &profiler{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return p, nil
}

// stop ends profiling, keeps the raw profile under the scratch
// directory, and folds it into per-module and per-phase shares.
func (p *profiler) stop(o options) (shares, error) {
	pprof.StopCPUProfile()
	path := filepath.Join(o.scratch, fmt.Sprintf("cpu-%s-%d.pprof", o.workload, o.seed))
	if err := os.WriteFile(path, p.buf.Bytes(), 0o644); err != nil {
		return shares{}, err
	}
	fmt.Fprintf(o.stderr, "perfbench: cpu profile in %s\n", path)
	return foldProfile(p.buf.Bytes())
}

// shares is a folded CPU profile: sample weight by the module of the
// leaf function (self time) and by phase (any frame on the stack).
type shares struct {
	total float64
	self  map[string]float64
	under map[string]float64
}

// phases maps a phase metric to the frames that put a sample under it.
var phases = map[string]func(fn string) bool{
	"kernels.verify_pct": func(fn string) bool {
		return strings.HasPrefix(fn, "minnow/internal/kernels.") && strings.HasSuffix(fn, ").Verify")
	},
	"sim.run_pct": func(fn string) bool {
		return fn == "minnow/internal/sim.(*Engine).Run" || fn == "minnow/internal/sim.(*Engine).RunParallel"
	},
	"service.http_pct": func(fn string) bool { return strings.HasPrefix(fn, "net/http.") },
	"service.key_pct":  func(fn string) bool { return fn == "minnow/internal/service.CacheKey" },
}

// moduleOf names the layer a leaf function belongs to: the repository's
// internal package (subpackages fold into their parent), the event
// heap's container/heap as part of sim, and Go map internals as
// runtime.map. Everything else is "".
func moduleOf(fn string) string {
	switch {
	case strings.HasPrefix(fn, "container/heap."):
		return "sim"
	case strings.HasPrefix(fn, "internal/runtime/maps."), strings.HasPrefix(fn, "runtime.map"), strings.HasPrefix(fn, "runtime.memhash"):
		return "runtime.map"
	case strings.HasPrefix(fn, "minnow/internal/"):
		rest := strings.TrimPrefix(fn, "minnow/internal/")
		if i := strings.IndexAny(rest, "./"); i > 0 {
			return rest[:i]
		}
	}
	return ""
}

// layers writes the profile shares as percentages of all samples.
func (s shares) layers(out map[string]float64) {
	pct := func(v float64) float64 { return 100 * ratio(v, s.total) }
	for _, mod := range []string{"sim", "core", "mem", "cpu", "tlb", "bpred", "noc", "dram", "uops", "galois", "worklist", "graph", "service"} {
		out[mod+".self_pct"] = pct(s.self[mod])
	}
	out["runtime.map_pct"] = pct(s.self["runtime.map"])
	for name := range phases {
		out[name] = pct(s.under[name])
	}
}

func foldProfile(gz []byte) (shares, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return shares{}, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return shares{}, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return shares{}, fmt.Errorf("cpu profile: %w", err)
	}
	s := shares{self: map[string]float64{}, under: map[string]float64{}}
	for _, smp := range p.samples {
		var frames []string // leaf first
		for _, loc := range smp.locs {
			for _, fid := range p.locFuncs[loc] {
				frames = append(frames, p.str(p.funcName[fid]))
			}
		}
		if len(frames) == 0 {
			continue
		}
		s.total += smp.value
		s.self[moduleOf(frames[0])] += smp.value
		for name, match := range phases {
			for _, fn := range frames {
				if match(fn) {
					s.under[name] += smp.value
					break
				}
			}
		}
	}
	return s, nil
}

// profile is the subset of the pprof protobuf the folding needs.
type profile struct {
	samples  []profSample
	locFuncs map[uint64][]uint64 // location id → function ids, innermost first
	funcName map[uint64]int64    // function id → string table index
	strs     []string
}

type profSample struct {
	locs  []uint64 // leaf first
	value float64  // CPU nanoseconds (or sample count if that is all there is)
}

func (p *profile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strs) {
		return ""
	}
	return p.strs[i]
}

// parseProfile decodes the fields of profile.proto used here: Profile
// sample (2), location (4), function (5) and string_table (6).
func parseProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]int64{}}
	err := eachField(b, func(num int, wire int, v uint64, data []byte) error {
		switch num {
		case 2:
			var smp profSample
			var vals []uint64
			err := eachField(data, func(n, w int, v uint64, d []byte) error {
				switch n {
				case 1:
					smp.locs = appendVarints(smp.locs, w, v, d)
				case 2:
					vals = appendVarints(vals, w, v, d)
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(vals) > 0 {
				smp.value = float64(vals[len(vals)-1])
			}
			p.samples = append(p.samples, smp)
		case 4:
			var id uint64
			var fids []uint64
			err := eachField(data, func(n, w int, v uint64, d []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
					return eachField(d, func(n, w int, v uint64, _ []byte) error {
						if n == 1 {
							fids = append(fids, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.locFuncs[id] = fids
		case 5:
			var id uint64
			var name int64
			err := eachField(data, func(n, w int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.funcName[id] = name
		case 6:
			p.strs = append(p.strs, string(data))
		}
		return nil
	})
	return p, err
}

var errTruncated = errors.New("truncated protobuf")

// eachField walks one protobuf message, calling fn with each field's
// number, wire type, varint value (wire type 0) or payload (wire type 2).
func eachField(b []byte, fn func(num, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n == 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = uvarint(b)
			if n == 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed or not.
func appendVarints(dst []uint64, wire int, v uint64, data []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(data) > 0 {
		x, n := uvarint(data)
		if n == 0 {
			break
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst
}

// uvarint decodes a varint, returning its length (0 on error).
func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// spanLog keeps the traced run's spans in memory until the run ends.
type spanLog struct {
	mu    sync.Mutex
	spans []span
}

// span is one timed call the benchmark made into the program, in
// microseconds since the process started. Spans of one job (svc-mix: one
// submission) share Job; Parent names the enclosing span ("" for a root).
type span struct {
	Name    string `json:"name"`
	Bench   string `json:"bench,omitempty"`
	Job     int    `json:"job"`
	Parent  string `json:"parent,omitempty"`
	StartUS int64  `json:"start_us"`
	EndUS   int64  `json:"end_us"`
}

// parents records which span encloses each child span.
var parents = map[string]string{
	"harness.run": "job",
	"stats.hash":  "job",
	"http.post":   "request",
	"http.stream": "request",
}

// add records a span that started at t and ends now.
func (l *spanLog) add(name, bench string, job int, t time.Time) {
	l.addRange(name, bench, job, t, time.Now())
}

func (l *spanLog) addRange(name, bench string, job int, t0, t1 time.Time) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{
		Name: name, Bench: bench, Job: job, Parent: parents[name],
		StartUS: t0.Sub(processStart).Microseconds(), EndUS: t1.Sub(processStart).Microseconds(),
	})
}

func (l *spanLog) write(path string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	b, err := json.Marshal(l.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
