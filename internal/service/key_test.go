package service

import (
	"container/heap"
	"encoding/json"
	"reflect"
	"testing"

	"minnow"
)

// TestCacheKeyDefaultResolution pins the canonicalization rule that an
// omitted knob and its explicit documented default address the same
// cache entry.
func TestCacheKeyDefaultResolution(t *testing.T) {
	k1, _ := CacheKey("SSSP", minnow.Config{})
	k2, _ := CacheKey("SSSP", minnow.Config{Threads: 8, Scale: 1, Seed: 42, Credits: 32, MemChannels: 12, Scheduler: "obim"})
	if k1 != k2 {
		t.Fatalf("zero config and explicit defaults key differently: %s != %s", k1, k2)
	}
	k3, _ := CacheKey("SSSP", minnow.Config{Threads: 16})
	if k3 == k1 {
		t.Fatal("non-default Threads did not change the key")
	}
}

// keyClass says how a minnow.Config field relates to the cache key.
type keyClass int

const (
	semantic    keyClass = iota // can change the result: must reach the key
	observeOnly                 // provably inert on RunSummary: excluded
	hostHook                    // function hook with no wire form: excluded
	skipVerify                  // only decides whether a failed check errors: excluded
)

// configFields classifies every minnow.Config field exactly once, with a
// setter that moves the field off its default.
var configFields = []struct {
	name  string
	class keyClass
	set   func(*minnow.Config)
}{
	{"Threads", semantic, func(c *minnow.Config) { c.Threads = 16 }},
	{"Scale", semantic, func(c *minnow.Config) { c.Scale = 2 }},
	{"Seed", semantic, func(c *minnow.Config) { c.Seed = 7 }},
	{"Minnow", semantic, func(c *minnow.Config) { c.Minnow = true }},
	{"Prefetch", semantic, func(c *minnow.Config) { c.Prefetch = true }},
	{"Credits", semantic, func(c *minnow.Config) { c.Credits = 16 }},
	{"Scheduler", semantic, func(c *minnow.Config) { c.Scheduler = "fifo" }},
	{"LgInterval", semantic, func(c *minnow.Config) { lg := uint(3); c.LgInterval = &lg }},
	{"HWPrefetcher", semantic, func(c *minnow.Config) { c.HWPrefetcher = "stride" }},
	{"SplitThreshold", semantic, func(c *minnow.Config) { c.SplitThreshold = 512 }},
	{"WorkBudget", semantic, func(c *minnow.Config) { c.WorkBudget = 1000 }},
	{"Serial", semantic, func(c *minnow.Config) { c.Serial = true }},
	{"MemChannels", semantic, func(c *minnow.Config) { c.MemChannels = 4 }},
	{"PerfectBP", semantic, func(c *minnow.Config) { c.PerfectBP = true }},
	{"NoFences", semantic, func(c *minnow.Config) { c.NoFences = true }},
	{"CustomPrefetch", hostHook, func(c *minnow.Config) {
		c.CustomPrefetch = func(minnow.Task, minnow.GraphView, func(...uint64)) {}
	}},
	{"SkipVerify", skipVerify, func(c *minnow.Config) { c.SkipVerify = true }},
	{"TraceEvents", observeOnly, func(c *minnow.Config) { c.TraceEvents = 64 }},
	{"MetricsEvery", observeOnly, func(c *minnow.Config) { c.MetricsEvery = 10000 }},
	{"Timeline", observeOnly, func(c *minnow.Config) { c.Timeline = true }},
	{"Profile", observeOnly, func(c *minnow.Config) { c.Profile = true }},
	{"OnSample", hostHook, func(c *minnow.Config) { c.OnSample = func(int64, string) {} }},
	{"Cancel", hostHook, func(c *minnow.Config) { c.Cancel = func() bool { return false } }},
	{"Faults", semantic, func(c *minnow.Config) { c.Faults = "transient" }},
	{"Arrivals", semantic, func(c *minnow.Config) { c.Arrivals = "steady" }},
	{"Invariants", semantic, func(c *minnow.Config) { c.Invariants = true }},
	{"MaxCycles", semantic, func(c *minnow.Config) { c.MaxCycles = 1 << 20 }},
}

// TestCacheKeyExclusions pins the key classification of every
// minnow.Config field: the table above must list exactly the struct's
// fields, each semantic field set off its default must change the key,
// and each excluded field (observe-only, host hook, SkipVerify) must
// not. A new Config field fails here until it is classified, so it can
// never silently miss the key.
func TestCacheKeyExclusions(t *testing.T) {
	classified := map[string]bool{}
	for _, f := range configFields {
		if classified[f.name] {
			t.Errorf("field %s classified twice", f.name)
		}
		classified[f.name] = true
	}
	present := map[string]bool{}
	for _, f := range reflect.VisibleFields(reflect.TypeOf(minnow.Config{})) {
		present[f.Name] = true
		if !classified[f.Name] {
			t.Errorf("minnow.Config.%s has no cache-key class; add it to configFields", f.Name)
		}
	}
	for name := range classified {
		if !present[name] {
			t.Errorf("configFields lists %s, which minnow.Config no longer has", name)
		}
	}

	base, _ := CacheKey("BFS", minnow.Config{})
	for _, f := range configFields {
		var cfg minnow.Config
		f.set(&cfg)
		if reflect.ValueOf(cfg).FieldByName(f.name).IsZero() {
			t.Fatalf("%s: setter left the field at its zero value", f.name)
		}
		k, _ := CacheKey("BFS", cfg)
		if f.class == semantic && k == base {
			t.Errorf("%s: outcome-affecting field did not change the key", f.name)
		}
		if f.class != semantic && k != base {
			t.Errorf("%s: excluded field changed the key", f.name)
		}
	}
	if k, _ := CacheKey("CC", minnow.Config{}); k == base {
		t.Error("benchmark name did not change the key")
	}
}

// TestCacheKeySchedulerResolution pins that Minnow ownership and the
// default software scheduler resolve before hashing.
func TestCacheKeySchedulerResolution(t *testing.T) {
	a, _ := CacheKey("SSSP", minnow.Config{Minnow: true})
	b, _ := CacheKey("SSSP", minnow.Config{Minnow: true, Scheduler: "minnow"})
	if a != b {
		t.Fatal("Minnow with implicit and explicit scheduler key differently")
	}
	c, _ := CacheKey("SSSP", minnow.Config{Scheduler: "obim"})
	d, _ := CacheKey("SSSP", minnow.Config{})
	if c != d {
		t.Fatal("default software scheduler keys differently from explicit obim")
	}
	if a == c {
		t.Fatal("minnow and obim schedulers share a key")
	}
}

// TestCacheKeyDocRoundTrips checks the canonical document is valid JSON
// carrying the resolved values (the debuggable form stored in entries).
func TestCacheKeyDocRoundTrips(t *testing.T) {
	lg := uint(3)
	_, doc := CacheKey("SSSP", minnow.Config{LgInterval: &lg})
	var m map[string]any
	if err := json.Unmarshal(doc, &m); err != nil {
		t.Fatalf("key doc is not JSON: %v", err)
	}
	if m["threads"] != float64(8) || m["lg_interval"] != float64(3) || m["v"] != float64(3) {
		t.Fatalf("key doc fields not resolved: %v", m)
	}
}

// TestCacheKeyArrivals pins the open-loop additions: the arrival plan
// keys verbatim (two plans differing only in their seed clause are
// different deterministic outcomes, so they must address different
// entries).
func TestCacheKeyArrivals(t *testing.T) {
	closed, _ := CacheKey("SSSP", minnow.Config{Minnow: true, Prefetch: true})
	a, _ := CacheKey("SSSP", minnow.Config{Minnow: true, Prefetch: true, Arrivals: "seed=1;poisson:gap=600,count=400"})
	b, _ := CacheKey("SSSP", minnow.Config{Minnow: true, Prefetch: true, Arrivals: "seed=2;poisson:gap=600,count=400"})
	if a == closed {
		t.Fatal("arrival plan did not change the key")
	}
	if a == b {
		t.Fatal("arrival plans differing only in seed share a key")
	}
	_, doc := CacheKey("SSSP", minnow.Config{Minnow: true, Prefetch: true, Arrivals: "steady"})
	var m map[string]any
	if err := json.Unmarshal(doc, &m); err != nil {
		t.Fatalf("key doc is not JSON: %v", err)
	}
	if m["arrivals"] != "steady" {
		t.Fatalf("key doc arrivals = %v, want steady", m["arrivals"])
	}
}

// TestJobQueueOrder pins the priority heap: higher priority first,
// submission order within a level.
func TestJobQueueOrder(t *testing.T) {
	q := &jobQueue{}
	for _, j := range []*job{
		{priority: 0, seq: 1},
		{priority: 5, seq: 2},
		{priority: 0, seq: 3},
		{priority: 5, seq: 4},
	} {
		heap.Push(q, j)
	}
	var got []int64
	for q.Len() > 0 {
		got = append(got, heap.Pop(q).(*job).seq)
	}
	want := []int64{2, 4, 1, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop order = %v, want %v", got, want)
		}
	}
}
