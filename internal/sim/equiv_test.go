package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// The differential layer: a synthetic universe decoded from a byte
// string, run through Engine.Run and compared, on every observable
// output, against three other executions of the same universe:
//
//   - refEngine: a linear-scan reference scheduler with the engine's
//     documented semantics (min (time, ID) order, clamped wakes,
//     min-reschedule of queued actors, one probe per crossed boundary,
//     watchdog polls every N steps) and none of its heap bookkeeping;
//   - Engine.Run resumed in fixed step chunks, which must be
//     indistinguishable from one unbounded Run;
//   - independent copies run concurrently on host goroutines, the way
//     harness.RunJobs runs jobs.
//
// Four actor species cover the interaction spectrum:
//
//   - localActor: never interacts — only its own clock moves.
//   - phasedActor: private stretches punctuated by interactive steps
//     that touch the shared log and wake social actors.
//   - driftActor: like phasedActor, but the stretch end moves while the
//     stretch runs, shrinking and growing step by step.
//   - socialActor: every step is interactive — shared-log appends, peer
//     wakes, self-wakes, done-then-rearm.

// script is a wrapping byte reader; an empty script yields zeros.
type script struct {
	b []byte
	i int
}

func (s *script) next() byte {
	if len(s.b) == 0 {
		return 0
	}
	v := s.b[s.i%len(s.b)]
	s.i++
	return v
}

// scheduler is the engine surface a scenario uses; *Engine and
// *refEngine both provide it.
type scheduler interface {
	Register(a Actor) int
	Wake(id int, at Time)
	SetProbe(every Time, fn func(at Time))
	SetWatchdog(every int64, fn func() bool)
	Run(maxSteps int64) (Time, bool)
	Steps() int64
}

// refEntry is one actor's slot in the reference scheduler.
type refEntry struct {
	actor  Actor
	at     Time
	queued bool
}

// refEngine is the reference model: it finds the next actor by scanning
// every slot instead of keeping a heap.
type refEngine struct {
	ents       []*refEntry
	now        Time
	steps      int64
	probeAt    Time
	probeEvery Time
	probeFn    func(at Time)
	wdEvery    int64
	wdNext     int64
	wdFn       func() bool
}

func newRefEngine() *refEngine { return &refEngine{probeAt: timeMax} }

func (r *refEngine) Register(a Actor) int {
	r.ents = append(r.ents, &refEntry{actor: a})
	return len(r.ents) - 1
}

func (r *refEngine) Wake(id int, at Time) {
	ent := r.ents[id]
	if at < r.now {
		at = r.now
	}
	if ent.queued {
		if at < ent.at {
			ent.at = at
		}
		return
	}
	ent.at, ent.queued = at, true
}

func (r *refEngine) SetProbe(every Time, fn func(at Time)) {
	r.probeEvery, r.probeFn, r.probeAt = every, fn, every
	for r.probeAt <= r.now {
		r.probeAt += every
	}
}

func (r *refEngine) SetWatchdog(every int64, fn func() bool) {
	r.wdEvery, r.wdNext, r.wdFn = every, r.steps+every, fn
}

func (r *refEngine) Steps() int64 { return r.steps }

func (r *refEngine) Run(maxSteps int64) (Time, bool) {
	for {
		var ent *refEntry
		for _, c := range r.ents {
			if c.queued && (ent == nil || c.at < ent.at) {
				ent = c // strict < keeps the lowest ID on ties
			}
		}
		if ent == nil {
			return r.now, true
		}
		if maxSteps > 0 && r.steps >= maxSteps {
			return r.now, false
		}
		if r.wdFn != nil && r.steps >= r.wdNext {
			r.wdNext = r.steps + r.wdEvery
			if r.wdFn() {
				return r.now, false
			}
		}
		if ent.at > r.now {
			r.now = ent.at
			for r.probeAt <= r.now {
				at := r.probeAt
				r.probeAt += r.probeEvery
				r.probeFn(at)
			}
		}
		r.steps++
		next, done := ent.actor.Step()
		if done {
			ent.queued = false
			continue
		}
		if next < r.now {
			next = r.now
		}
		ent.at = next
	}
}

// world is the shared state of one scenario instance plus its recorders.
type world struct {
	log     []int64 // interaction log: actorID<<32 | time, in step order
	probes  []int64 // probe trace: boundary, log length, step count triples
	wdPolls int
	actors  []interface{ trace() []Time }
}

type traceRec struct{ times []Time }

func (t *traceRec) trace() []Time { return t.times }

type localActor struct {
	traceRec
	at    Time
	s     script
	limit int
}

func (a *localActor) Step() (Time, bool) {
	a.times = append(a.times, a.at)
	if len(a.times) >= a.limit {
		return a.at, true
	}
	a.at += Time(a.s.next() % 7) // 0 advances exercise same-time re-steps
	return a.at, false
}

type phasedActor struct {
	traceRec
	w       *world
	eng     scheduler
	id      int
	at      Time
	until   Time // end of the current private stretch
	s       script
	limit   int
	targets []int // social actor IDs
}

func (a *phasedActor) Step() (Time, bool) {
	a.times = append(a.times, a.at)
	if len(a.times) >= a.limit {
		return a.at, true
	}
	if a.at >= a.until {
		// Interactive step: shared-log append, maybe a wake, then open the
		// next private stretch.
		a.w.log = append(a.w.log, int64(a.id)<<32|int64(a.at))
		if b := a.s.next(); len(a.targets) > 0 && b&1 == 1 {
			tgt := a.targets[int(b>>1)%len(a.targets)]
			a.eng.Wake(tgt, a.at+Time(b%13))
		}
		a.until = a.at + 1 + Time(a.s.next()%23)
	}
	a.at += Time(a.s.next() % 9)
	return a.at, false
}

// driftActor alternates interactive steps (shared-log append, maybe a
// wake) with private stretches bounded by `until`. Unlike phasedActor,
// `until` drifts while the stretch executes: private steps occasionally
// extend it or pull it closer.
type driftActor struct {
	traceRec
	w       *world
	eng     scheduler
	id      int
	at      Time
	until   Time // end of the current private stretch
	s       script
	limit   int
	targets []int // social actor IDs
}

func (a *driftActor) Step() (Time, bool) {
	a.times = append(a.times, a.at)
	if len(a.times) >= a.limit {
		return a.at, true
	}
	if a.at >= a.until {
		a.w.log = append(a.w.log, int64(a.id)<<32|int64(a.at))
		if b := a.s.next(); len(a.targets) > 0 && b&1 == 1 {
			a.eng.Wake(a.targets[int(b>>1)%len(a.targets)], a.at+Time(b%11))
		}
		a.until = a.at + 1 + Time(a.s.next()%37)
		a.at += Time(a.s.next() % 5)
		return a.at, false
	}
	b := a.s.next()
	a.at += Time(b % 6)
	switch {
	case b%7 == 0:
		a.until += Time(1 + b%16) // grow: the next interaction receded
	case b%5 == 0 && a.until > a.at+1:
		a.until-- // shrink: the next interaction approached
	}
	return a.at, false
}

type socialActor struct {
	traceRec
	w     *world
	eng   scheduler
	id    int
	at    Time
	s     script
	limit int
	peers []int
}

func (a *socialActor) Step() (Time, bool) {
	a.times = append(a.times, a.at)
	a.w.log = append(a.w.log, int64(a.id)<<32|int64(a.at))
	if len(a.times) >= a.limit {
		return a.at, true // re-arm wakes still log, then retire again
	}
	switch b := a.s.next(); b % 4 {
	case 1:
		tgt := a.peers[int(a.s.next())%len(a.peers)]
		a.eng.Wake(tgt, a.at+Time(a.s.next()%17))
	case 2:
		a.eng.Wake(a.id, a.at) // self-wake: a no-op on ordering
	}
	a.at += Time(a.s.next() % 9)
	return a.at, false
}

// buildWorld decodes one scenario instance onto e. Identical bytes build
// identical universes, so each execution gets a fresh copy.
func buildWorld(data []byte, e scheduler) *world {
	s := &script{b: data}
	w := &world{}
	nLocal := int(s.next() % 5)
	nPhased := int(s.next() % 4)
	nSocial := 1 + int(s.next()%4)
	nDrift := int(s.next() % 4)
	probeEvery := Time(s.next()%64) * 4
	wdEvery := int64(s.next() % 50)

	sub := func(k int) script { return script{b: data, i: 11 * (k + 1)} }
	limit := func() int { return 3 + int(s.next()%40) }

	var socials []int
	k := 0
	for i := 0; i < nSocial; i++ {
		a := &socialActor{w: w, eng: e, at: Time(s.next() % 16), s: sub(k), limit: limit()}
		k++
		a.id = e.Register(a)
		socials = append(socials, a.id)
		w.actors = append(w.actors, a)
	}
	for _, id := range socials {
		any(w.actors[id]).(*socialActor).peers = socials
	}
	for i := 0; i < nPhased; i++ {
		a := &phasedActor{w: w, eng: e, at: Time(s.next() % 16), s: sub(k), limit: limit(), targets: socials}
		k++
		a.until = a.at + 1 + Time(s.next()%23)
		a.id = e.Register(a)
		w.actors = append(w.actors, a)
	}
	for i := 0; i < nDrift; i++ {
		a := &driftActor{w: w, eng: e, at: Time(s.next() % 16), s: sub(k), limit: limit(), targets: socials}
		k++
		a.until = a.at + 1 + Time(s.next()%37)
		a.id = e.Register(a)
		w.actors = append(w.actors, a)
	}
	for i := 0; i < nLocal; i++ {
		a := &localActor{at: Time(s.next() % 16), s: sub(k), limit: limit()}
		k++
		e.Register(a)
		w.actors = append(w.actors, a)
	}
	for id := range w.actors {
		e.Wake(id, Time(s.next()%16))
	}
	if probeEvery > 0 {
		e.SetProbe(probeEvery, func(at Time) {
			w.probes = append(w.probes, int64(at), int64(len(w.log)), e.Steps())
		})
	}
	if wdEvery > 0 {
		e.SetWatchdog(wdEvery, func() bool { w.wdPolls++; return false })
	}
	return w
}

// socialOnly reports whether a scenario decodes to social actors alone:
// every step interacts, the densest wake-during-step load.
func socialOnly(data []byte) bool {
	s := &script{b: data}
	nLocal := s.next() % 5
	nPhased := s.next() % 4
	s.next() // nSocial: at least one
	nDrift := s.next() % 4
	return nLocal == 0 && nPhased == 0 && nDrift == 0
}

// outcome is everything the determinism contract covers.
type outcome struct {
	traces  [][]Time
	log     []int64
	probes  []int64
	now     Time
	steps   int64
	drained bool
	wdPolls int
}

// execution selects how a scenario runs: on the engine or the reference
// model, with maxSteps as the stop bound (0 = run to drain), resumed in
// chunks of chunk steps when chunk > 0.
type execution struct {
	ref      bool
	maxSteps int64
	chunk    int64
}

func (x execution) String() string {
	if x.ref {
		return "reference"
	}
	if x.chunk > 0 {
		return fmt.Sprintf("chunk=%d", x.chunk)
	}
	return "engine"
}

func runScenario(data []byte, x execution) outcome {
	var e scheduler = NewEngine()
	if x.ref {
		e = newRefEngine()
	}
	w := buildWorld(data, e)
	var now Time
	var drained bool
	if x.chunk > 0 {
		for bound := x.chunk; ; bound += x.chunk {
			if x.maxSteps > 0 && bound >= x.maxSteps {
				now, drained = e.Run(x.maxSteps)
				break
			}
			if now, drained = e.Run(bound); drained {
				break
			}
		}
	} else {
		now, drained = e.Run(x.maxSteps)
	}
	o := outcome{log: w.log, probes: w.probes, now: now, drained: drained,
		steps: e.Steps(), wdPolls: w.wdPolls}
	for _, a := range w.actors {
		o.traces = append(o.traces, a.trace())
	}
	return o
}

func assertEquiv(t *testing.T, want, got outcome, label string) {
	t.Helper()
	if !reflect.DeepEqual(want.traces, got.traces) {
		t.Fatalf("%s: step traces diverge\nengine: %v\ngot:    %v", label, want.traces, got.traces)
	}
	if !reflect.DeepEqual(want.log, got.log) {
		t.Fatalf("%s: shared interaction log diverges\nengine: %v\ngot:    %v", label, want.log, got.log)
	}
	if !reflect.DeepEqual(want.probes, got.probes) {
		t.Fatalf("%s: probe trace diverges\nengine: %v\ngot:    %v", label, want.probes, got.probes)
	}
	if want.now != got.now || want.steps != got.steps || want.drained != got.drained {
		t.Fatalf("%s: now/steps/drained diverge: engine (%d,%d,%v) vs (%d,%d,%v)",
			label, want.now, want.steps, want.drained, got.now, got.steps, got.drained)
	}
	if want.wdPolls != got.wdPolls {
		t.Fatalf("%s: watchdog polls diverge: %d vs %d", label, want.wdPolls, got.wdPolls)
	}
}

// equivChunks are the resume granularities, from single steps upward.
var equivChunks = []int64{1, 7, 64}

// equivCopies is how many independent copies run concurrently.
const equivCopies = 4

// checkBounded compares an engine run stopped at maxSteps (0 = drain)
// against the reference model, chunked resumption, and concurrent copies.
func checkBounded(t *testing.T, data []byte, maxSteps int64) outcome {
	t.Helper()
	base := runScenario(data, execution{maxSteps: maxSteps})
	assertEquiv(t, base, runScenario(data, execution{ref: true, maxSteps: maxSteps}), "reference")
	for _, c := range equivChunks {
		x := execution{maxSteps: maxSteps, chunk: c}
		assertEquiv(t, base, runScenario(data, x), x.String())
	}
	outs := make([]outcome, equivCopies)
	var wg sync.WaitGroup
	for i := range outs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i] = runScenario(data, execution{maxSteps: maxSteps})
		}(i)
	}
	wg.Wait()
	for i, o := range outs {
		assertEquiv(t, base, o, fmt.Sprintf("concurrent copy %d", i))
	}
	return base
}

func checkScenario(t *testing.T, data []byte) {
	t.Helper()
	checkBounded(t, data, 0)
}

func TestParallelMatchesSerialRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 80; i++ {
		data := make([]byte, 8+rng.Intn(56))
		rng.Read(data)
		t.Run(fmt.Sprintf("case%03d", i), func(t *testing.T) { checkScenario(t, data) })
	}
}

func TestParallelAllWeaveExact(t *testing.T) {
	// Zeroed species-count bytes force nLocal = nPhased = nDrift = 0:
	// only social actors remain, so every step appends to the shared log
	// and most wake a peer or themselves mid-step.
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 40; i++ {
		data := make([]byte, 8+rng.Intn(40))
		rng.Read(data)
		data[0], data[1], data[3] = 0, 0, 0
		if !socialOnly(data) {
			t.Fatal("scenario construction drifted: expected social actors only")
		}
		t.Run(fmt.Sprintf("case%03d", i), func(t *testing.T) { checkScenario(t, data) })
	}
}

func TestParallelMaxStepsDeterministic(t *testing.T) {
	// A step-bound stop lands on exactly the same state on the engine,
	// the reference model, chunked resumption, and concurrent copies.
	data := []byte{4, 2, 2, 0, 0, 77, 33, 11, 99, 55, 200, 150, 100, 50}
	o := checkBounded(t, data, 40)
	if o.drained {
		t.Skip("scenario drained before the step bound; pick a longer one")
	}
	if o.steps != 40 {
		t.Fatalf("step-bound stop executed %d steps, want 40", o.steps)
	}
}

// sparseActor steps at fixed 50-cycle strides.
type sparseActor struct{ at Time }

func (a *sparseActor) Step() (Time, bool) {
	a.at += 50
	return a.at, a.at > 500
}

// wakerActor wakes a fixed target at a fixed time from its single step.
type wakerActor struct {
	eng    scheduler
	target int
	at     Time
	wakeAt Time
}

func (a *wakerActor) Step() (Time, bool) {
	a.eng.Wake(a.target, a.wakeAt)
	return a.at, true
}

func TestParallelSparseProbeCatchUp(t *testing.T) {
	// A sparse schedule: one actor striding 50 cycles under an 8-cycle
	// probe interval, so every idle gap crosses several boundaries at
	// once. The engine must fire one callback per boundary, in order, with
	// the same step counts as the reference model; a catch-up that fired
	// only once per gap would leave holes in the boundary sequence.
	build := func(e scheduler) *[]int64 {
		id := e.Register(&sparseActor{})
		e.Wake(id, 0)
		probes := &[]int64{}
		e.SetProbe(8, func(at Time) { *probes = append(*probes, int64(at), e.Steps()) })
		return probes
	}
	es := NewEngine()
	want := build(es)
	es.Run(0)
	if len(*want) == 0 {
		t.Fatal("probe never fired")
	}
	for i := 0; i+1 < len(*want); i += 2 {
		if exp := int64(8 * (i/2 + 1)); (*want)[i] != exp {
			t.Fatalf("probe sequence has a hole: probe %d fired at %d, want %d", i/2, (*want)[i], exp)
		}
	}
	ref := newRefEngine()
	got := build(ref)
	ref.Run(0)
	if !reflect.DeepEqual(*want, *got) {
		t.Fatalf("probe trace diverges from the reference\nengine:    %v\nreference: %v", *want, *got)
	}
	for _, c := range equivChunks {
		ec := NewEngine()
		got := build(ec)
		for bound := c; ; bound += c {
			if _, drained := ec.Run(bound); drained {
				break
			}
		}
		if !reflect.DeepEqual(*want, *got) {
			t.Fatalf("chunk=%d: probe trace diverges\nengine:  %v\nchunked: %v", c, *want, *got)
		}
	}
}

func TestParallelWakeAbsorption(t *testing.T) {
	// A wake aimed at or after an actor's pending step is absorbed: the
	// queued step keeps its earlier time, so the target's schedule is the
	// one it would have without the waker.
	build := func(e scheduler, waker bool) *sparseActor {
		sparse := &sparseActor{}
		sid := e.Register(sparse)
		e.Wake(sid, 0)
		if waker {
			wid := e.Register(&wakerActor{eng: e, at: 10, wakeAt: 60, target: sid})
			e.Wake(wid, 10)
		}
		return sparse
	}
	alone := NewEngine()
	sa := build(alone, false)
	nowA, _ := alone.Run(0)
	es := NewEngine()
	ss := build(es, true)
	nowS, _ := es.Run(0)
	if nowS != nowA || es.Steps() != alone.Steps()+1 || ss.at != sa.at {
		t.Fatalf("absorbed wake changed the schedule: alone (%d,%d,%d) vs woken (%d,%d,%d)",
			nowA, alone.Steps(), sa.at, nowS, es.Steps(), ss.at)
	}
	ref := newRefEngine()
	sr := build(ref, true)
	nowR, _ := ref.Run(0)
	if nowS != nowR || es.Steps() != ref.Steps() || ss.at != sr.at {
		t.Fatalf("absorbed wake diverged from the reference: engine (%d,%d,%d) vs reference (%d,%d,%d)",
			nowS, es.Steps(), ss.at, nowR, ref.Steps(), sr.at)
	}
}
