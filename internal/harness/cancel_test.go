package harness

import (
	"errors"
	"sync/atomic"
	"testing"

	"minnow/internal/kernels"
)

// TestCancelHookInert pins the cancellation layer's determinism
// contract: installing a cancel hook that never fires must not change
// ANY deterministic output — same summary hash, same wall cycles, same
// event-loop step count as a plain run.
func TestCancelHookInert(t *testing.T) {
	spec, err := kernels.SpecByName("SSSP")
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Run(spec, obsOpts())
	if err != nil {
		t.Fatal(err)
	}
	o := obsOpts()
	polls := 0
	o.Cancel = func() bool { polls++; return false }
	armed, err := Run(spec, o)
	if err != nil {
		t.Fatal(err)
	}
	if armed.WallCycles != plain.WallCycles {
		t.Fatalf("wall cycles %d with cancel hook, %d without", armed.WallCycles, plain.WallCycles)
	}
	if armed.SimSteps != plain.SimSteps {
		t.Fatalf("sim steps %d with cancel hook, %d without", armed.SimSteps, plain.SimSteps)
	}
	if a, b := armed.Summary().Hash(), plain.Summary().Hash(); a != b {
		t.Fatalf("summary hash changed with cancel hook installed:\n  armed %s\n  plain %s", a, b)
	}
}

// TestCancelHookStopsRun cancels a run mid-flight and checks the error
// wraps ErrCanceled (the contract minnowd's cancel path dispatches on).
func TestCancelHookStopsRun(t *testing.T) {
	spec, err := kernels.SpecByName("SSSP")
	if err != nil {
		t.Fatal(err)
	}
	o := obsOpts()
	var flag atomic.Bool
	flag.Store(true) // cancel at the very first poll
	o.Cancel = flag.Load
	_, err = Run(spec, o)
	if err == nil {
		t.Fatal("canceled run returned no error")
	}
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("cancel error does not wrap ErrCanceled: %v", err)
	}
}
