package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"sort"
	"strings"

	"minnow/internal/stats"
)

// pinsJSON pins every job result of the default seed (and the fixed
// warm-up jobs). Regenerate it after a change that is meant to alter
// simulated results, one workload at a time:
//
//	bash perfbench/run.sh --workload <name> --seed 1 --seconds 20 --trace 0 -pins-out perfbench/pins.json
//
//go:embed pins.json
var pinsJSON []byte

// digest is what a pin records about one job: its summary hash and the
// summary fields a mismatch report compares.
type digest struct {
	Hash   string             `json:"hash"`
	Fields map[string]float64 `json:"fields"`
}

// pinSet maps a job key (benchmark, configuration, input seed) to its
// pinned digest.
type pinSet map[string]digest

func loadPins() (pinSet, error) {
	p := pinSet{}
	if err := json.Unmarshal(pinsJSON, &p); err != nil {
		return nil, fmt.Errorf("pins.json: %w", err)
	}
	return p, nil
}

// mergePins adds the observed digests to the pin file at path.
func mergePins(path string, observed pinSet) error {
	p := pinSet{}
	b, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(b, &p); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	case !errors.Is(err, fs.ErrNotExist):
		return err
	}
	for k, d := range observed {
		p[k] = d
	}
	out, err := json.MarshalIndent(p, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// digestOf summarises a run: the hash plus the headline counters.
func digestOf(s stats.RunSummary, hash string) digest {
	var instrs int64
	for _, c := range s.Cores {
		instrs += c.Instrs
	}
	mpki := 0.0
	if instrs > 0 {
		mpki = float64(s.L2.Misses) / float64(instrs) * 1000
	}
	return digest{Hash: hash, Fields: map[string]float64{
		"wall_cycles": float64(s.WallCycles),
		"sim_steps":   float64(s.SimSteps),
		"work_items":  float64(s.WorkItems),
		"instrs":      float64(instrs),
		"l2_accesses": float64(s.L2.Accesses),
		"l2_misses":   float64(s.L2.Misses),
		"l2_mpki":     math.Round(mpki*1e4) / 1e4,
		"l3_misses":   float64(s.L3.Misses),
		"dram_reads":  float64(s.DRAMReads),
		"inv_msgs":    float64(s.InvMsgs),
		"noc_stall":   float64(s.NoCStall),
		"dram_stall":  float64(s.DRAMStall),
	}}
}

// diffDigests renders the fields that differ between a pinned digest and
// an observed one, one per line.
func diffDigests(want, got digest) string {
	var keys []string
	for k := range want.Fields {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		w, g := want.Fields[k], got.Fields[k]
		if w == g {
			continue
		}
		rel := ""
		if w != 0 {
			rel = fmt.Sprintf(" (%+.3f%%)", 100*(g-w)/w)
		}
		fmt.Fprintf(&b, "  %-12s pinned %.6g  got %.6g%s\n", k, w, g, rel)
	}
	if b.Len() == 0 {
		b.WriteString("  (headline counters agree; the difference is in per-core or per-engine detail)\n")
	}
	return b.String()
}

// verify checks one job's summary against its pin and against earlier
// runs of the same input in this process. It reports whether the job
// passed.
func (m *measurement) verify(o options, key string, s stats.RunSummary, hash string) bool {
	d := digestOf(s, hash)
	m.mu.Lock()
	defer m.mu.Unlock()
	if want, ok := o.pins[key]; ok && want.Hash != d.Hash {
		m.failLocked(o, "%s: summary hash %.12s, pinned %.12s\n%s", key, d.Hash, want.Hash, diffDigests(want, d))
		return false
	}
	if prev, ok := m.observed[key]; ok && prev.Hash != d.Hash {
		m.failLocked(o, "%s: summary hash %.12s differs from an earlier run of the same input (%.12s)\n%s", key, d.Hash, prev.Hash, diffDigests(prev, d))
		return false
	}
	m.observed[key] = d
	return true
}
