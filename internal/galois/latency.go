package galois

import "sort"

// LatencyRecorder accumulates per-task latency samples for open-loop
// arrival tasks, one bucket pair per arrival class. Sample counts are
// bounded by the arrival plan's total count, so whole distributions are
// kept and percentiles are exact (nearest-rank), not estimated.
//
// Like every other piece of per-run state it is single-run and touched
// only from steps the event loop serializes, so recording order — and
// therefore the sorted sample sets and their percentiles — is
// deterministic.
type LatencyRecorder struct {
	wait    [][]int64
	sojourn [][]int64
}

// NewLatencyRecorder sizes a recorder for the given class count.
func NewLatencyRecorder(classes int) *LatencyRecorder {
	return &LatencyRecorder{
		wait:    make([][]int64, classes),
		sojourn: make([][]int64, classes),
	}
}

// clamp floors samples at zero: a task can be popped by a core whose
// local clock lags the arrival instant (core clocks advance
// independently between steps), which would otherwise record a
// negative wait.
func clamp(v int64) int64 {
	if v < 0 {
		return 0
	}
	return v
}

// Wait records one queue-wait sample (birth to dequeue) for a class.
func (l *LatencyRecorder) Wait(class int32, v int64) {
	l.wait[class] = append(l.wait[class], clamp(v))
}

// Sojourn records one sojourn sample (birth to operator completion) for
// a class.
func (l *LatencyRecorder) Sojourn(class int32, v int64) {
	l.sojourn[class] = append(l.sojourn[class], clamp(v))
}

// Classes returns the recorder's class count.
func (l *LatencyRecorder) Classes() int { return len(l.wait) }

// Waits returns the sorted queue-wait samples for a class.
func (l *LatencyRecorder) Waits(class int) []int64 { return sorted(l.wait[class]) }

// Sojourns returns the sorted sojourn samples for a class.
func (l *LatencyRecorder) Sojourns(class int) []int64 { return sorted(l.sojourn[class]) }

func sorted(vs []int64) []int64 {
	out := append([]int64(nil), vs...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
