package harness

import (
	"fmt"

	"minnow/internal/arrival"
	"minnow/internal/galois"
	"minnow/internal/kernels"
	"minnow/internal/obs"
	"minnow/internal/sim"
	"minnow/internal/stats"
)

// arrivalActor is the open-loop injection actor: it holds the plan's
// pre-materialized event schedule and, as a simulation actor, steps at
// each scheduled arrival cycle to construct the task (at the kernel's
// *current* state — the step weaves, serialized against every operator
// application), stamp its birth cycle and class, and deposit it into a
// worker's pending buffer through the runner's conservation-counted
// path. It then wakes the workers so retired (drained-out) workers
// resume polling. The actor exists only when Options.Arrivals is armed;
// closed-loop runs never construct it, which is what keeps them
// byte-identical to a build without the arrival layer.
type arrivalActor struct {
	plan   *arrival.Plan
	events []arrival.Event
	kern   kernels.Arrivable
	runner *galois.Runner
	rec    *galois.LatencyRecorder

	next      int     // index of the first undelivered event
	delivered int64   // events handed to the runner so far
	perClass  []int64 // delivered, by class index

	// wakeWorkers re-arms every worker actor at the arrival instant (the
	// sim.Engine wake-during-step contract re-schedules done actors).
	// Installed by the harness after worker registration.
	wakeWorkers func(at sim.Time)

	// Timeline wiring (nil/zero when the timeline is off; obs entry
	// points are nil-receiver-safe).
	tl    *obs.Timeline
	track obs.TrackID
}

// newArrivalActor materializes the plan's schedule against the kernel.
func newArrivalActor(plan *arrival.Plan, kern kernels.Arrivable, nodes int32) (*arrivalActor, error) {
	events, err := plan.Schedule(nodes)
	if err != nil {
		return nil, err
	}
	return &arrivalActor{
		plan:     plan,
		events:   events,
		kern:     kern,
		perClass: make([]int64, len(plan.Classes)),
	}, nil
}

// Step implements sim.Actor: deliver every event scheduled at the
// current instant, then sleep until the next one. Task construction
// reads live kernel state and Deposit mutates shared runner counters;
// the event loop serializes both against worker steps.
func (a *arrivalActor) Step() (sim.Time, bool) {
	at := sim.Time(a.events[a.next].At)
	for a.next < len(a.events) && sim.Time(a.events[a.next].At) <= at {
		ev := a.events[a.next]
		t := a.kern.ArrivalTask(ev.Node)
		t.Birth = ev.At
		t.Class = ev.Class + 1
		a.runner.Deposit(int(a.delivered%int64(len(a.runner.Workers()))), t)
		a.perClass[ev.Class]++
		a.delivered++
		a.next++
		a.tl.Instant(a.track, obs.EvArrival, at, int64(ev.Node))
	}
	a.wakeWorkers(at)
	if a.next >= len(a.events) {
		return at, true
	}
	return sim.Time(a.events[a.next].At), false
}

// Delivered returns how many scheduled arrivals were handed to the
// runner.
func (a *arrivalActor) Delivered() int64 { return a.delivered }

// Total returns the schedule length.
func (a *arrivalActor) Total() int64 { return int64(len(a.events)) }

// Pending returns how many scheduled arrivals are still in the future —
// work the watchdog must count as queued even while the machine is
// quiet.
func (a *arrivalActor) Pending() int64 { return int64(len(a.events) - a.next) }

// buildArrivals validates and materializes the arrival layer for one
// run: kernels whose operator is not re-entrant cannot accept mid-run
// arrivals and are rejected up front with the offending benchmark
// named.
func buildArrivals(spec kernels.Spec, kern kernels.Kernel, o Options) (*arrivalActor, error) {
	if o.Arrivals == nil {
		return nil, nil
	}
	ak, ok := kern.(kernels.Arrivable)
	if !ok {
		return nil, fmt.Errorf("harness: %s does not support open-loop arrivals (its operator visits each node exactly once and is not re-entrant)", spec.Name)
	}
	arr, err := newArrivalActor(o.Arrivals, ak, int32(kern.Graph().N))
	if err != nil {
		return nil, fmt.Errorf("harness: %w", err)
	}
	return arr, nil
}

// latencyStats assembles the per-class latency percentiles from the
// recorder's samples: injected counts come from the injector (scheduled
// deliveries), retired counts from the completed-sojourn sample sets.
func (a *arrivalActor) latencyStats() *stats.LatencyStats {
	ls := &stats.LatencyStats{
		Injected: a.runner.Injected(),
		Retired:  a.runner.Retired(),
	}
	names := a.plan.ClassNames()
	for i := range a.plan.Classes {
		waits := a.rec.Waits(i)
		soj := a.rec.Sojourns(i)
		ls.Classes = append(ls.Classes, stats.ClassLatency{
			Class:      names[i],
			Injected:   a.perClass[i],
			Retired:    int64(len(soj)),
			WaitP50:    stats.Percentile(waits, 50),
			WaitP95:    stats.Percentile(waits, 95),
			WaitP99:    stats.Percentile(waits, 99),
			SojournP50: stats.Percentile(soj, 50),
			SojournP95: stats.Percentile(soj, 95),
			SojournP99: stats.Percentile(soj, 99),
		})
	}
	return ls
}
