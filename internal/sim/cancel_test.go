package sim

import "testing"

func TestCancelStopsRun(t *testing.T) {
	e := NewEngine()
	id := e.Register(&spinActor{})
	e.Wake(id, 0)

	polls := 0
	e.SetCancel(10, func() bool {
		polls++
		return polls >= 3 // cancel on the third poll
	})
	now, drained := e.Run(0)
	if drained {
		t.Fatalf("cancel reported as drain")
	}
	if !e.Canceled() {
		t.Fatalf("Canceled() false after cancel fired")
	}
	if e.Halted() {
		t.Fatalf("cancel must not set Halted()")
	}
	if polls != 3 {
		t.Fatalf("cancel hook polled %d times, want 3", polls)
	}
	// Three polls at every-10-steps → exactly 30 steps executed.
	if e.Steps() != 30 {
		t.Fatalf("steps %d at cancel, want 30", e.Steps())
	}
	if now != e.Now() {
		t.Fatalf("Run returned now=%d, engine Now=%d", now, e.Now())
	}
}

// TestCancelBenignIsInert pins the determinism contract for completed
// runs: a never-firing cancel hook must not perturb the step sequence,
// final time, or step count relative to a run with no hook at all.
func TestCancelBenignIsInert(t *testing.T) {
	run := func(withHook bool) (Time, int64, []int) {
		e := NewEngine()
		var log []int
		a := &scriptActor{steps: []Time{5, 9, 14}, log: &log, id: 0}
		b := &scriptActor{steps: []Time{3, 9}, log: &log, id: 1}
		e.Wake(e.Register(a), 0)
		e.Wake(e.Register(b), 0)
		if withHook {
			e.SetCancel(1, func() bool { return false })
		}
		now, drained := e.Run(0)
		if !drained || e.Canceled() {
			t.Fatalf("benign cancel hook perturbed the run: drained=%v canceled=%v", drained, e.Canceled())
		}
		return now, e.Steps(), log
	}
	nowA, stepsA, logA := run(false)
	nowB, stepsB, logB := run(true)
	if nowA != nowB || stepsA != stepsB {
		t.Fatalf("cancel hook changed the run: now %d vs %d, steps %d vs %d", nowA, nowB, stepsA, stepsB)
	}
	if len(logA) != len(logB) {
		t.Fatalf("cancel hook changed the step log length: %d vs %d", len(logA), len(logB))
	}
	for i := range logA {
		if logA[i] != logB[i] {
			t.Fatalf("cancel hook changed step order at %d: %v vs %v", i, logA, logB)
		}
	}
}

func TestCancelDisable(t *testing.T) {
	e := NewEngine()
	var log []int
	a := &scriptActor{steps: []Time{1, 2}, log: &log, id: 0}
	e.Wake(e.Register(a), 0)

	e.SetCancel(1, func() bool { return true })
	e.SetCancel(0, nil) // disarm before running
	if _, drained := e.Run(0); !drained {
		t.Fatalf("disarmed cancel hook still stopped the run")
	}
	if e.Canceled() {
		t.Fatalf("Canceled() true after disarmed run")
	}
}

func TestCanceledClearsOnNextRun(t *testing.T) {
	e := NewEngine()
	id := e.Register(&spinActor{})
	e.Wake(id, 0)
	e.SetCancel(1, func() bool { return true })
	e.Run(0)
	if !e.Canceled() {
		t.Fatalf("expected cancel")
	}
	e.SetCancel(0, nil)
	e.Run(5) // bounded resume
	if e.Canceled() {
		t.Fatalf("Canceled() sticky across Run")
	}
}
