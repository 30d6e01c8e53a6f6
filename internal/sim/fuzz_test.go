package sim

import "testing"

// FuzzEngineEquiv drives randomized synthetic universes — local,
// phased, drift and social actors with wake-during-step, self-wake,
// done-then-rearm, plus probe and watchdog interleavings — through
// Engine.Run, the linear-scan reference scheduler, chunked resumption
// and concurrent copies, asserting identical step traces,
// shared-interaction logs, probe sequences, frontiers, step counts and
// watchdog polls. The seed corpus lives in testdata/fuzz/FuzzEngineEquiv
// and replays as regular test cases. (Byte 3 is the drift-actor count.)
func FuzzEngineEquiv(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 3, 0, 8, 5, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{4, 3, 2, 0, 16, 10, 200, 150, 100, 50, 25, 12, 6, 3, 1, 255, 128})
	f.Add([]byte{2, 0, 4, 0, 0, 0, 9, 9, 9, 9, 1, 1, 1, 1, 17, 34, 51})
	f.Add([]byte{1, 3, 1, 0, 63, 49, 5, 10, 15, 20, 25, 30, 35, 40})
	// Drift-heavy universes, with and without probes/watchdog, alone and
	// mixed with every other species.
	f.Add([]byte{0, 0, 1, 3, 0, 0, 191, 83, 47, 201, 133, 77, 29, 250, 61, 19})
	f.Add([]byte{2, 2, 2, 3, 16, 10, 7, 35, 14, 105, 42, 21, 70, 3, 91, 28, 56})
	f.Add([]byte{0, 0, 2, 2, 63, 49, 245, 35, 175, 70, 140, 105, 21, 7, 210, 30})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			t.Skip("oversized input")
		}
		checkScenario(t, data)
	})
}
