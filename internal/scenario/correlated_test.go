package scenario

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"holdcsim/internal/fault"
	"holdcsim/internal/sched"
)

// TestCorrelatedFaultMatrix sweeps the correlated-failure engine across
// its axes — rack/pod/subtree blasts, Weibull/exponential renewal with
// and without a crew limit, cascades, outage-log replay, both orphan
// policies — crossed with topologies and utilizations: 100+ scenarios,
// every one invariant-clean. Run with -race in CI: the sweep executes
// scenarios concurrently.
func TestCorrelatedFaultMatrix(t *testing.T) {
	log := "0.050000 0.100000 server 1\n" +
		"0.300000 0.100000 rack 0\n" +
		"0.600000 0.100000 pod 0\n" +
		"0.900000 0.050000 switch 0\n"
	path := filepath.Join(t.TempDir(), "outages.log")
	if err := os.WriteFile(path, []byte(log), 0o644); err != nil {
		t.Fatal(err)
	}
	base := Scenario{
		Servers:       8,
		DelayTimerSec: -1,
		Placer:        PlacerSpec{Kind: PlLeastLoaded},
		Factory:       FactorySpec{Kind: FacSingle},
		MaxJobs:       100,
	}
	axes := Axes{
		Seeds: []uint64{1, 2, 3},
		Topologies: []TopologySpec{
			{Kind: TopoNone},
			{Kind: TopoStar, A: 8},
			{Kind: TopoFatTree, A: 4},
		},
		Arrivals: []ArrivalSpec{
			{Kind: ArrPoisson, Rho: 0.3},
			{Kind: ArrPoisson, Rho: 0.6},
		},
		Faults: []fault.Spec{
			{RackKills: 1, RackDownSec: 0.1},
			{PodKills: 1, PodDownSec: 0.1, Orphans: sched.OrphanDrop},
			{SubtreeKills: 1, SubtreeDownSec: 0.1},
			{ServerMTTFSec: 0.8, ServerMTTRSec: 0.1, RepairCrews: 1},
			{ServerMTTFSec: 0.8, ServerMTTRSec: 0.1, WeibullShape: 1.6, Orphans: sched.OrphanDrop},
			{ServerCrashes: 1, ServerDownSec: 0.2, CascadeP: 1, CascadeDelaySec: 0.05, CascadeDepth: 2},
			{RackKills: 1, RackDownSec: 0.15, SwitchMTTFSec: 1.2, SwitchMTTRSec: 0.1},
			{TraceFile: path},
		},
	}
	scenarios := axes.Expand(base)
	if len(scenarios) < 100 {
		t.Fatalf("matrix expanded to %d scenarios, want 100+", len(scenarios))
	}

	var mu sync.Mutex
	failures := 0
	var wg sync.WaitGroup
	sem := make(chan struct{}, 8)
	for i, s := range scenarios {
		i, s := i, s
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			res, err := s.Run()
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				failures++
				if failures <= 5 {
					t.Errorf("scenario %d %s: %v", i, s.String(), err)
				}
				return
			}
			if len(res.Violations) != 0 {
				failures++
				if failures <= 5 {
					t.Errorf("scenario %d %s: %d violation(s): %v",
						i, s.String(), len(res.Violations), res.Violations[0])
				}
			}
		}()
	}
	wg.Wait()
	if failures > 5 {
		t.Errorf("... and %d more failing scenarios", failures-5)
	}
	t.Logf("%d correlated-fault scenarios, all invariant-clean", len(scenarios))
}

// TestCorrelatedPresetRoundTripReplay: the fault-correlated preset
// survives export/re-import exactly and the re-imported scenario
// replays byte-identically.
func TestCorrelatedPresetRoundTripReplay(t *testing.T) {
	p, err := Preset("fault-correlated")
	if err != nil {
		t.Fatal(err)
	}
	b, err := Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if decoded != p {
		t.Fatalf("preset changed across the codec:\n%+v\n%+v", p, decoded)
	}
	ra, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(ra.Violations) != 0 {
		t.Fatalf("violations: %v", ra.Violations)
	}
	rb, err := decoded.Run()
	if err != nil {
		t.Fatal(err)
	}
	a, bb := ra.Results, rb.Results
	if a.JobsCompleted != bb.JobsCompleted || a.JobsLost != bb.JobsLost ||
		a.End != bb.End || a.ServerEnergyJ != bb.ServerEnergyJ ||
		a.NetworkEnergyJ != bb.NetworkEnergyJ || *a.Faults != *bb.Faults {
		t.Fatalf("re-imported preset replay diverged:\n%+v\n%+v", a, bb)
	}
	if a.Faults.Applied() == 0 {
		t.Fatal("fault-correlated preset applied no faults")
	}
}

// TestArrivalClip covers the ArrivalSpec clip window: validation,
// label injectivity, codec round trip, and the replay semantics (the
// window bounds the generated arrivals).
func TestArrivalClip(t *testing.T) {
	// Ten arrivals, one per second, 0..9.
	var lines string
	for i := 0; i < 10; i++ {
		lines += fmt.Sprintf("%d.0\n", i)
	}
	path := filepath.Join(t.TempDir(), "arrivals.trace")
	if err := os.WriteFile(path, []byte(lines), 0o644); err != nil {
		t.Fatal(err)
	}
	mk := func(from, to float64) Scenario {
		return Scenario{
			Seed:          9,
			Servers:       2,
			DelayTimerSec: -1,
			Placer:        PlacerSpec{Kind: PlLeastLoaded},
			Arrival: ArrivalSpec{Kind: ArrTraceFile, Rho: 0.4, TraceFile: path,
				ClipFromSec: from, ClipToSec: to},
			Factory: FactorySpec{Kind: FacSingle},
		}
	}

	// Validation.
	bad := []Scenario{}
	{
		s := mk(2, 1) // empty window
		bad = append(bad, s)
		s2 := mk(0, 0)
		s2.Arrival.ClipFromSec = -1 // negative
		bad = append(bad, s2)
		s3 := mk(0, 0)
		s3.Arrival = ArrivalSpec{Kind: ArrPoisson, Rho: 0.4, ClipFromSec: 1} // clip without a trace file
		s3.MaxJobs = 10
		bad = append(bad, s3)
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted %s", i, s.String())
		}
	}

	// Labels: clip variants never collide.
	l0, l1, l2 := mk(0, 0).String(), mk(2, 5).String(), mk(2, 0).String()
	if l0 == l1 || l1 == l2 || l0 == l2 {
		t.Errorf("clip labels collide: %q %q %q", l0, l1, l2)
	}
	// Dead clip fields on another kind still render (injectivity).
	dead := Scenario{Arrival: ArrivalSpec{Kind: ArrPoisson, Rho: 0.4, ClipFromSec: 1}}
	live := Scenario{Arrival: ArrivalSpec{Kind: ArrPoisson, Rho: 0.4}}
	if dead.String() == live.String() {
		t.Error("dead clip fields dropped from the label")
	}

	// Codec round trip.
	s := mk(2, 5)
	b, err := Encode(s)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if got != s {
		t.Fatalf("clip fields lost in codec:\n%+v\n%+v", s.Arrival, got.Arrival)
	}

	// Replay semantics: [2, 5) keeps arrivals 2, 3, 4; [2, 0) runs to
	// the end (2..9); no clip replays all ten.
	cases := []struct {
		from, to float64
		want     int64
	}{
		{0, 0, 10},
		{2, 5, 3},
		{2, 0, 8},
	}
	for _, tc := range cases {
		res, err := mk(tc.from, tc.to).Run()
		if err != nil {
			t.Fatalf("clip [%g, %g): %v", tc.from, tc.to, err)
		}
		if res.Results.JobsGenerated != tc.want {
			t.Errorf("clip [%g, %g): generated %d jobs, want %d",
				tc.from, tc.to, res.Results.JobsGenerated, tc.want)
		}
	}

	// A window past the trace is an empty clip -> construction error.
	if _, err := mk(50, 60).Run(); err == nil {
		t.Error("empty clip window accepted at build time")
	}
}
