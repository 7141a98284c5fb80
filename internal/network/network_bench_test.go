package network

import (
	"testing"

	"holdcsim/internal/engine"
	"holdcsim/internal/power"
	"holdcsim/internal/simtime"
	"holdcsim/internal/topology"
)

func BenchmarkWaterFill(b *testing.B) {
	g, err := topology.FatTree{K: 4, RateBps: 10e9}.Build()
	if err != nil {
		b.Fatal(err)
	}
	eng := engine.New()
	cfg := DefaultConfig(power.DataCenter10G(8))
	cfg.ECMP = true
	n, err := New(eng, g, cfg)
	if err != nil {
		b.Fatal(err)
	}
	hosts := g.Hosts()
	// 64 long-lived crossing flows.
	for i := 0; i < 64; i++ {
		if err := n.TransferFlow(hosts[i%16], hosts[(i*7+3)%16], 1<<40, nil); err != nil && hosts[i%16] != hosts[(i*7+3)%16] {
			b.Fatal(err)
		}
	}
	eng.RunUntil(simtime.Microsecond)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.recomputeFlowRates()
	}
}

func BenchmarkPacketForwarding(b *testing.B) {
	g, err := topology.FatTree{K: 4, RateBps: 10e9}.Build()
	if err != nil {
		b.Fatal(err)
	}
	eng := engine.New()
	cfg := DefaultConfig(power.DataCenter10G(8))
	cfg.PortBufferBytes = 1 << 30
	n, err := New(eng, g, cfg)
	if err != nil {
		b.Fatal(err)
	}
	hosts := g.Hosts()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// One MTU packet across the fabric (6 hops worst case).
		if err := n.TransferPackets(hosts[0], hosts[15], 1500, nil); err != nil {
			b.Fatal(err)
		}
		eng.Run()
	}
}

// newFluidStep builds a k=4 fat-tree in fluid mode and returns one
// rate-sharing step: a contending pair of transfers into one
// destination plus a disjoint one, driving waterfill re-rates at every
// flow start and release. This is the per-transfer cost of fluid mode,
// the counterpart of the per-hop cost BenchmarkPacketForwarding
// measures. BenchmarkFluidStep and TestFluidStepAllocs share it.
func newFluidStep(tb testing.TB) func() {
	tb.Helper()
	g, err := topology.FatTree{K: 4, RateBps: 10e9}.Build()
	if err != nil {
		tb.Fatal(err)
	}
	eng := engine.New()
	cfg := DefaultConfig(power.DataCenter10G(8))
	cfg.Model = ModelFluid
	n, err := New(eng, g, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	hosts := g.Hosts()
	return func() {
		for _, tr := range [...]struct{ src, dst int }{{0, 15}, {1, 15}, {2, 3}} {
			if err := n.TransferPackets(hosts[tr.src], hosts[tr.dst], 15_000, nil); err != nil {
				tb.Fatal(err)
			}
		}
		eng.Run()
	}
}

func BenchmarkFluidStep(b *testing.B) {
	b.ReportAllocs()
	step := newFluidStep(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}
