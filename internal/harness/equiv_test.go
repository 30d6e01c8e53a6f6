package harness

import (
	"bytes"
	"fmt"
	"testing"

	"minnow/internal/kernels"
	"minnow/internal/stats"
)

// The differential equivalence suite: a run executed on a RunJobs worker
// pool, next to identical copies of itself, must be byte-identical to
// the same run executed alone on the calling goroutine — on every
// benchmark x scheduler x seed: same RunSummary JSON and hash, same
// folded profile, same timeline bytes, same step count. Runs are capped
// by a work budget so the suite stays fast.

// equivCopies is how many copies of a job share the pool; equivWorkers
// is the pool width, so every copy runs concurrently with the others.
const (
	equivCopies  = 4
	equivWorkers = 4
)

type engineArtifacts struct {
	summary  []byte
	hash     string
	folded   string
	timeline []byte
	simSteps int64
}

func artifactsOf(run *stats.Run) engineArtifacts {
	a := engineArtifacts{
		summary:  run.Summary().JSON(),
		hash:     run.Summary().Hash(),
		simSteps: run.SimSteps,
	}
	if run.Profile != nil {
		a.folded = run.Profile.Folded()
	}
	if run.Timeline != nil {
		a.timeline = run.Timeline.Perfetto()
	}
	return a
}

func TestEquivalenceSerialParallel(t *testing.T) {
	specs := append(kernels.Suite(), kernels.Extensions()...)
	scheds := []string{"obim", "fifo", "lifo", "strictpq", "minnow"}
	seeds := []uint64{42, 7}
	for _, spec := range specs {
		for _, sched := range scheds {
			for _, seed := range seeds {
				spec, sched, seed := spec, sched, seed
				t.Run(fmt.Sprintf("%s/%s/seed%d", spec.Name, sched, seed), func(t *testing.T) {
					t.Parallel()
					o := Options{
						Threads:    4,
						Seed:       seed,
						Scheduler:  sched,
						WorkBudget: 1000,
						SkipVerify: true,
						Timeline:   true,
						Profile:    true,
						Prefetch:   sched == "minnow",
					}
					run, err := Run(spec, o)
					if err != nil {
						t.Fatalf("%s/%s serial: %v", spec.Name, sched, err)
					}
					base := artifactsOf(run)
					jobs := make([]Job, equivCopies)
					for i := range jobs {
						jobs[i] = Job{Bench: spec.Name, Opts: o}
					}
					for i, res := range RunJobs(jobs, equivWorkers) {
						if res.Err != nil {
							t.Fatalf("copy %d: %v", i, res.Err)
						}
						got := artifactsOf(res.Run)
						if got.hash != base.hash || !bytes.Equal(got.summary, base.summary) {
							t.Fatalf("copy %d: RunSummary diverges from serial\nserial: %s\nparallel: %s",
								i, base.summary, got.summary)
						}
						if got.simSteps != base.simSteps {
							t.Errorf("copy %d: sim steps diverge: serial %d, parallel %d", i, base.simSteps, got.simSteps)
						}
						if got.folded != base.folded {
							t.Errorf("copy %d: folded profile diverges from serial", i)
						}
						if !bytes.Equal(got.timeline, base.timeline) {
							t.Errorf("copy %d: timeline bytes diverge from serial", i)
						}
					}
				})
			}
		}
	}
}
