package fault_test

import (
	"testing"

	"holdcsim/internal/fault"
	"holdcsim/internal/scenario"
	"holdcsim/internal/sched"
)

// FuzzFaultSchedule composes a random scenario with a fuzz-controlled
// fault workload — crash/recover, link flap, switch death, both orphan
// policies, in-range durations — and requires that every failure-aware
// conservation law holds: the lost-work ledger reconciles, Little's
// integral splits exactly at crash boundaries, energy closure excludes
// down time, and no placement path panics even under a full-farm
// outage. Run with -race in the fuzz-smoke job: each execution owns its
// engine, so the target is race-clean by construction and the detector
// guards against shared state leaking into the fault paths.
func FuzzFaultSchedule(f *testing.F) {
	f.Add(uint64(0), uint64(0))
	f.Add(uint64(1), uint64(0xdeadbeef))
	f.Add(uint64(42), uint64(7))
	f.Add(uint64(77), uint64(1)<<62)
	f.Add(uint64(9999), uint64(0xfffffffffffffff))
	f.Fuzz(func(t *testing.T, seed, mut uint64) {
		s := scenario.Random(seed)
		take := func(n uint64) uint64 { // peel a field off the mutation word
			v := mut % n
			mut /= n
			return v
		}
		// Overwrite the fault axis entirely from the mutation word so the
		// fuzzer, not the generator's 35% coin, decides the fault mix.
		s.Faults = fault.Spec{
			ServerCrashes: int(take(6)),
			ServerDownSec: 0.01 + float64(take(40))*0.02,
			LinkFlaps:     int(take(4)),
			LinkDownSec:   0.01 + float64(take(20))*0.02,
			SwitchKills:   int(take(3)),
			SwitchDownSec: 0.01 + float64(take(20))*0.02,
			Orphans:       sched.OrphanPolicy(take(2)),
		}
		// Hard work bound for the fuzz executor (same budget as
		// FuzzScenario): cap generation so one exec stays fast no matter
		// what horizon the scenario composed.
		if s.MaxJobs == 0 || s.MaxJobs > 500 {
			s.MaxJobs = 500
		}
		if err := s.Validate(); err != nil {
			return // rejecting a malformed composition cleanly is the contract
		}
		res, err := s.Run()
		if err != nil {
			t.Fatalf("seed=%d mut=%#x %s: %v", seed, mut, s.String(), err)
		}
		if len(res.Violations) != 0 {
			t.Fatalf("seed=%d mut=%#x %s: violations %v", seed, mut, s.String(), res.Violations)
		}
		r := res.Results
		if r.JobsCompleted+r.JobsLost > r.JobsGenerated {
			t.Fatalf("seed=%d mut=%#x: completed %d + lost %d > generated %d",
				seed, mut, r.JobsCompleted, r.JobsLost, r.JobsGenerated)
		}
		if !s.Faults.Empty() {
			if r.Faults == nil {
				t.Fatalf("seed=%d mut=%#x: faulted run returned no ledger", seed, mut)
			}
			if r.Faults.JobsLost() != r.JobsLost {
				t.Fatalf("seed=%d mut=%#x: ledger lost %d != results lost %d",
					seed, mut, r.Faults.JobsLost(), r.JobsLost)
			}
		}
	})
}
