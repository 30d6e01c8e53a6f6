// Package mem models the CMP memory hierarchy: per-core L1D and L2
// caches, a banked shared L3 with an idealized sharer directory, the NoC
// between them, and DRAM channels behind the L3. The L2 carries the one
// prefetch bit per line that Minnow's credit-based throttling relies on
// (§5.3.1 of the paper).
//
// Data values are never stored here — the hierarchy tracks *addresses*
// only. Benchmark state lives in ordinary Go slices; kernels compute the
// simulated addresses of what they touch from the CSR layout and feed
// those addresses through this model for timing.
//
// Determinism contract (§2 of sim's scheme): cache and directory state
// evolve only through the timestamped access stream the actor ordering
// fixes, so hit/miss outcomes and latencies reproduce exactly. The
// timeline hooks (System.TL) observe misses and writebacks as they are
// timed; they never alter replacement or coherence decisions.
package mem

import "minnow/internal/sim"

// LineShift is log2 of the 64-byte line size.
const LineShift = 6

// LineSize is the cache line size in bytes.
const LineSize = 1 << LineShift

// LineAddr returns the line-granular address of a byte address.
func LineAddr(addr uint64) uint64 { return addr >> LineShift }

type way struct {
	tag      uint64
	readyAt  sim.Time // fill completion; hits before this wait (in-flight line)
	lru      uint32
	valid    bool
	dirty    bool
	prefetch bool // Minnow prefetch bit (meaningful in L2 only)
}

// Evicted describes a line displaced by a fill.
type Evicted struct {
	Line     uint64
	Valid    bool
	Dirty    bool
	Prefetch bool
}

// Cache is one set-associative, write-back, write-allocate cache (or one
// L3 bank). All methods take line addresses.
type Cache struct {
	sets  [][]way
	assoc int
	mask  uint64
	tick  uint32
	Stats CacheCounters
}

// CacheCounters tracks raw event counts for one cache.
type CacheCounters struct {
	Accesses      int64
	Misses        int64
	Evictions     int64
	Writebacks    int64
	PrefetchFills int64
	PrefetchUsed  int64
	PrefetchWaste int64
}

// NewCache builds a cache with the given total line count and
// associativity. lines must be a multiple of assoc and lines/assoc a power
// of two.
func NewCache(lines, assoc int) *Cache {
	nsets := lines / assoc
	if nsets <= 0 || nsets&(nsets-1) != 0 {
		panic("mem: cache sets must be a positive power of two")
	}
	c := &Cache{assoc: assoc, mask: uint64(nsets - 1)}
	c.sets = make([][]way, nsets)
	backing := make([]way, nsets*assoc)
	for i := range c.sets {
		c.sets[i] = backing[i*assoc : (i+1)*assoc : (i+1)*assoc]
	}
	return c
}

// Lines returns the capacity in lines.
func (c *Cache) Lines() int { return len(c.sets) * c.assoc }

func (c *Cache) setOf(line uint64) []way { return c.sets[line&c.mask] }

// Lookup probes for a line. On a hit it updates LRU, optionally sets the
// dirty bit, and returns the line's fill-completion time — a demand access
// arriving before readyAt waits for the in-flight fill rather than getting
// the data instantly. When demand is set, a hit on a prefetch-marked line
// clears the bit and reports it (the credit-return event); prefetcher
// probes pass demand=false and leave the bit alone.
func (c *Cache) Lookup(line uint64, write, demand bool) (hit, wasPrefetch bool, readyAt sim.Time) {
	c.tick++
	c.Stats.Accesses++
	set := c.setOf(line)
	for i := range set {
		w := &set[i]
		if w.valid && w.tag == line {
			w.lru = c.tick
			if write {
				w.dirty = true
			}
			readyAt = w.readyAt
			if w.prefetch && demand {
				w.prefetch = false
				c.Stats.PrefetchUsed++
				return true, true, readyAt
			}
			return true, false, readyAt
		}
	}
	c.Stats.Misses++
	return false, false, 0
}

// ProbePrefetch reports whether a line is present with its prefetch bit
// set, without touching LRU, statistics, or the bit itself.
func (c *Cache) ProbePrefetch(line uint64) bool {
	set := c.setOf(line)
	for i := range set {
		if set[i].valid && set[i].tag == line && set[i].prefetch {
			return true
		}
	}
	return false
}

// ClearPrefetch clears a resident line's prefetch bit, counting it as
// used. Returns whether a set bit was cleared. The credit-return path for
// demand hits that are satisfied above the L2 (see DESIGN.md on L1
// shielding at reduced scale).
func (c *Cache) ClearPrefetch(line uint64) bool {
	set := c.setOf(line)
	for i := range set {
		w := &set[i]
		if w.valid && w.tag == line && w.prefetch {
			w.prefetch = false
			c.Stats.PrefetchUsed++
			return true
		}
	}
	return false
}

// Contains probes without touching LRU or statistics.
func (c *Cache) Contains(line uint64) bool {
	set := c.setOf(line)
	for i := range set {
		if set[i].valid && set[i].tag == line {
			return true
		}
	}
	return false
}

// Fill installs a line (after a miss), returning whatever was evicted.
// prefetch marks the new line as prefetcher-installed; readyAt records
// when the fill's data actually arrives.
func (c *Cache) Fill(line uint64, dirty, prefetch bool, readyAt sim.Time) Evicted {
	c.tick++
	set := c.setOf(line)
	victim := 0
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].lru < set[victim].lru {
			victim = i
		}
	}
	w := &set[victim]
	ev := Evicted{Line: w.tag, Valid: w.valid, Dirty: w.dirty, Prefetch: w.prefetch}
	if ev.Valid {
		c.Stats.Evictions++
		if ev.Dirty {
			c.Stats.Writebacks++
		}
		if ev.Prefetch {
			c.Stats.PrefetchWaste++
		}
	}
	*w = way{tag: line, lru: c.tick, valid: true, dirty: dirty, prefetch: prefetch, readyAt: readyAt}
	if prefetch {
		c.Stats.PrefetchFills++
	}
	return ev
}

// MarkPrefetch sets the prefetch bit on a resident line. It returns true
// if the line was present and previously unmarked (i.e. a credit should be
// consumed for it).
func (c *Cache) MarkPrefetch(line uint64) bool {
	set := c.setOf(line)
	for i := range set {
		w := &set[i]
		if w.valid && w.tag == line {
			if w.prefetch {
				return false
			}
			w.prefetch = true
			c.Stats.PrefetchFills++
			return true
		}
	}
	return false
}

// CountPrefetchMarked returns how many valid lines currently carry the
// prefetch bit. Read-only scan used by the credit-accounting audit (the
// engine's outstanding-marked counter must equal the lines actually
// marked in its cores' L2s).
func (c *Cache) CountPrefetchMarked() int {
	n := 0
	for _, set := range c.sets {
		for i := range set {
			if set[i].valid && set[i].prefetch {
				n++
			}
		}
	}
	return n
}

// ValidLines appends every valid way's line address to dst and returns
// it, in set-major order (deterministic). Read-only; used by the
// inclusion audit.
func (c *Cache) ValidLines(dst []uint64) []uint64 {
	for _, set := range c.sets {
		for i := range set {
			if set[i].valid {
				dst = append(dst, set[i].tag)
			}
		}
	}
	return dst
}

// Invalidate removes a line (coherence back-invalidation). It reports
// whether the line was present, was dirty, and carried a set prefetch bit.
func (c *Cache) Invalidate(line uint64) (present, dirty, prefetch bool) {
	set := c.setOf(line)
	for i := range set {
		w := &set[i]
		if w.valid && w.tag == line {
			present, dirty, prefetch = true, w.dirty, w.prefetch
			w.valid = false
			return
		}
	}
	return
}

// busyUntil models a simple fully-pipelined-but-bandwidth-limited port.
type busyUntil struct {
	next    sim.Time
	service sim.Time
}

// portWindow bounds how far ahead a port reservation may be and still
// queue a lagging request (clock-skew tolerance; see the mesh model).
const portWindow = 32

// reserve books the port at or after t and returns the service start time.
func (b *busyUntil) reserve(t sim.Time) sim.Time {
	if b.next > t && b.next-t <= portWindow {
		t = b.next
	}
	if t+b.service > b.next {
		b.next = t + b.service
	}
	return t
}
