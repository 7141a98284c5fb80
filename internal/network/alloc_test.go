//go:build !race

package network

import (
	"testing"

	"holdcsim/internal/engine"
	"holdcsim/internal/power"
	"holdcsim/internal/topology"
)

// TestPacketForwardingZeroAlloc is the alloc-regression gate for the
// packet fast path: after warmup (pools filled, routes cached, engine
// heap at capacity), forwarding an MTU across the fat-tree must not
// allocate at all. Excluded from -race builds, whose instrumentation
// allocates on its own. BenchmarkPacketForwarding reports the same
// number; this test makes CI fail on regression instead of just
// recording it.
func TestPacketForwardingZeroAlloc(t *testing.T) {
	g, err := topology.FatTree{K: 4, RateBps: 10e9}.Build()
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New()
	cfg := DefaultConfig(power.DataCenter10G(8))
	cfg.PortBufferBytes = 1 << 30
	n, err := New(eng, g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	hosts := g.Hosts()
	op := func() {
		if err := n.TransferPackets(hosts[0], hosts[15], 1500, nil); err != nil {
			t.Fatal(err)
		}
		eng.Run()
	}
	for i := 0; i < 200; i++ {
		op() // warm the packet/transfer pools, route cache and event heap
	}
	if avg := testing.AllocsPerRun(200, op); avg != 0 {
		t.Fatalf("packet forwarding allocates %.2f allocs/op, want 0", avg)
	}
}

// TestFluidStepAllocs caps the fluid model's per-step allocations at
// the figure BenchmarkFluidStep records (121 allocs/op, about 4.9 kB/op,
// stable across runs): the three-transfer step must not allocate more.
// Unlike the packet path the fluid step is not pooled yet, so the gate
// is a ceiling rather than zero; lower it as the step sheds allocations.
func TestFluidStepAllocs(t *testing.T) {
	step := newFluidStep(t)
	for i := 0; i < 10; i++ {
		step() // warm the route cache and event heap
	}
	const ceiling = 121
	if avg := testing.AllocsPerRun(200, step); avg > ceiling {
		t.Fatalf("fluid step allocates %.2f allocs/op, want <= %d", avg, ceiling)
	}
}
