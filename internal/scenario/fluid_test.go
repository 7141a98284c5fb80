package scenario

import (
	"strings"
	"testing"

	"holdcsim/internal/core"
	"holdcsim/internal/network"
)

// fluidDifferentialBases returns the packet-comm scenarios the
// fluid-vs-packet differential runs over: the fig13 switch-validation
// preset (the golden experiment with packet-granularity transfers) and
// a fat-tree scatter-gather variant that exercises multi-hop contention.
func fluidDifferentialBases(t *testing.T) []Scenario {
	t.Helper()
	fig13, err := Preset("fig13-switch-validation")
	if err != nil {
		t.Fatal(err)
	}
	fattree := Scenario{
		Seed:           7,
		Topology:       TopologySpec{Kind: TopoFatTree, A: 4},
		Comm:           core.CommPacket,
		Servers:        16,
		Profile:        ProfFourCore,
		DelayTimerSec:  -1,
		Placer:         PlacerSpec{Kind: PlRoundRobin},
		Arrival:        ArrivalSpec{Kind: ArrPoisson, Rho: 0.3},
		Factory:        FactorySpec{Kind: FacScatterGather, Service: SvcWebSearch, Width: 3, EdgeBytes: 24 << 10},
		MaxJobs:        80,
		SwitchSleepSec: -1,
	}
	return []Scenario{fig13, fattree}
}

// TestFluidPresetDifferential runs each differential base under both
// network models. The fluid model must (a) violate no invariant — the
// deep scan now checks packet conservation at every callback boundary —
// and (b) agree with the packet model exactly on job counts (the
// arrival stream and DAG structure are model-independent) and within a
// bounded factor on the virtual end time (contention resolves by
// serialization pipelining in one model, max-min rate sharing in the
// other).
func TestFluidPresetDifferential(t *testing.T) {
	for _, base := range fluidDifferentialBases(t) {
		packet := base
		fluid := base
		fluid.NetModel = network.ModelFluid
		if err := fluid.Validate(); err != nil {
			t.Fatalf("fluid variant of %s invalid: %v", base.String(), err)
		}
		pr, err := packet.Run()
		if err != nil {
			t.Fatalf("packet run %s: %v", packet.String(), err)
		}
		fr, err := fluid.Run()
		if err != nil {
			t.Fatalf("fluid run %s: %v", fluid.String(), err)
		}
		for _, res := range []Result{pr, fr} {
			if len(res.Violations) != 0 {
				t.Fatalf("%s: %d invariant violations: %v",
					res.Scenario.String(), len(res.Violations), res.Violations[0])
			}
		}
		if pr.Results.JobsGenerated != fr.Results.JobsGenerated ||
			pr.Results.JobsCompleted != fr.Results.JobsCompleted {
			t.Errorf("%s: job counts diverge: packet %d/%d, fluid %d/%d",
				base.String(),
				pr.Results.JobsGenerated, pr.Results.JobsCompleted,
				fr.Results.JobsGenerated, fr.Results.JobsCompleted)
		}
		pEnd, fEnd := pr.Results.End.Seconds(), fr.Results.End.Seconds()
		if pEnd <= 0 || fEnd <= 0 {
			t.Fatalf("%s: degenerate end times packet %g fluid %g", base.String(), pEnd, fEnd)
		}
		if ratio := fEnd / pEnd; ratio < 0.5 || ratio > 2 {
			t.Errorf("%s: end-time ratio %.3f outside [0.5, 2] (packet %g s, fluid %g s)",
				base.String(), ratio, pEnd, fEnd)
		}
	}
}

// TestNetModelAxis covers the scenario plumbing of the network-model
// axis: validation, labeling, codec round-trip, zero-value file
// compatibility, and matrix expansion.
func TestNetModelAxis(t *testing.T) {
	base, err := Preset("fig13-switch-validation")
	if err != nil {
		t.Fatal(err)
	}

	fluid := base
	fluid.NetModel = network.ModelFluid
	if !strings.Contains(fluid.String(), "/fluid") {
		t.Errorf("fluid label %q missing /fluid segment", fluid.String())
	}
	if strings.Contains(base.String(), "/fluid") {
		t.Errorf("packet label %q claims fluid", base.String())
	}

	// Fluid requires packet comm: flow comm and server-only both reject.
	bad := fluid
	bad.Comm = core.CommFlow
	if err := bad.Validate(); err == nil {
		t.Error("fluid model with flow comm validated")
	}

	// Codec round-trip keeps the model; encoding the packet model emits
	// no netModel key at all, so pre-axis scenario files are unchanged.
	enc, err := Encode(fluid)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(enc), `"netModel": "fluid"`) {
		t.Errorf("encoded fluid scenario missing netModel key:\n%s", enc)
	}
	dec, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if dec != fluid {
		t.Errorf("round trip changed scenario:\n got %+v\nwant %+v", dec, fluid)
	}
	encBase, err := Encode(base)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(encBase), "netModel") {
		t.Errorf("packet-model encoding leaks the zero value:\n%s", encBase)
	}

	// Matrix axis: both models expand; fluid drops out for non-packet comm.
	ax := Axes{
		Comms:     []core.CommMode{core.CommPacket, core.CommFlow},
		NetModels: []network.NetModel{network.ModelPacket, network.ModelFluid},
	}
	got := ax.Expand(base)
	if len(got) != 3 { // packet×packet, packet×fluid, flow×packet
		t.Fatalf("expanded %d scenarios, want 3: %v", len(got), got)
	}
	fluidCount := 0
	for _, s := range got {
		if s.NetModel == network.ModelFluid {
			fluidCount++
			if s.Comm != core.CommPacket {
				t.Errorf("fluid expanded with comm %v", s.Comm)
			}
		}
	}
	if fluidCount != 1 {
		t.Errorf("%d fluid scenarios in expansion, want 1", fluidCount)
	}
}
