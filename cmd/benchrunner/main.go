// Command benchrunner runs the simulator's core performance benchmarks —
// the engine hot paths, packet forwarding, and the Table I scalability
// figure — and appends the results to a JSON trajectory file
// (BENCH_engine.json by default). Committing one entry per PR makes every
// performance delta machine-checkable: a regression shows up as a drop in
// events/s or a jump in ns/op or allocs/op relative to the previous entry.
//
// Usage:
//
//	go run ./cmd/benchrunner [-out BENCH_engine.json] [-label "PR 1"]
//	go run ./cmd/benchrunner -hyperscale        # adds the 1M-server row
//	go run ./cmd/benchrunner -quick             # scalability rows only
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"testing"
	"time"

	"holdcsim/internal/engine"
	"holdcsim/internal/experiments"
	"holdcsim/internal/network"
	"holdcsim/internal/power"
	"holdcsim/internal/runner"
	"holdcsim/internal/simtime"
	"holdcsim/internal/topology"
)

// Result is one benchmark's figures in a trajectory entry.
type Result struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	// EventsPerSec is the engine dispatch rate where the benchmark
	// measures one (the Table I rows); 0 otherwise.
	EventsPerSec float64 `json:"events_per_sec,omitempty"`
	// PeakRSSBytes is the process's high-water resident set, recorded
	// by the hyperscale row (memory is its second axis).
	PeakRSSBytes int64 `json:"peak_rss_bytes,omitempty"`
	Iterations   int   `json:"iterations"`
}

// Entry is one benchrunner invocation in the trajectory file.
type Entry struct {
	Timestamp time.Time `json:"timestamp"`
	Label     string    `json:"label,omitempty"`
	GoVersion string    `json:"go_version"`
	GOARCH    string    `json:"goarch"`
	Results   []Result  `json:"results"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run executes one CLI invocation; factored from main so tests drive
// the binary in-process.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchrunner", flag.ContinueOnError)
	fs.SetOutput(stderr)
	out := fs.String("out", "BENCH_engine.json", "trajectory file to append to")
	label := fs.String("label", "", "free-form label for this entry (e.g. PR number)")
	quick := fs.Bool("quick", false, "scalability rows only, single-shot (CI smoke)")
	hyper := fs.Bool("hyperscale", false, "also run the 1M-server hyperscale row (quick shrinks it)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	entry := Entry{
		Timestamp: time.Now().UTC(), //simlint:allow determinism benchmark entries are stamped with wall time by design
		Label:     *label,
		GoVersion: runtime.Version(),
		GOARCH:    runtime.GOARCH,
	}

	if !*quick {
		benches := []struct {
			name string
			fn   func(b *testing.B)
		}{
			{"engine/schedule-and-run", benchScheduleAndRun},
			{"engine/churn", benchChurn},
			{"engine/timer-reset", benchTimerReset},
			{"network/packet-forwarding", benchPacketForwarding},
			{"network/fluid-step", benchFluidStep},
		}
		for _, bench := range benches {
			r := testing.Benchmark(bench.fn)
			res := Result{
				Name:        bench.name,
				NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
				AllocsPerOp: r.AllocsPerOp(),
				BytesPerOp:  r.AllocedBytesPerOp(),
				Iterations:  r.N,
			}
			entry.Results = append(entry.Results, res)
			fmt.Fprintf(stdout, "%-28s %12.2f ns/op %8d B/op %6d allocs/op\n",
				bench.name, res.NsPerOp, res.BytesPerOp, res.AllocsPerOp)
		}
	}

	tableI, err := runTableI(*quick)
	if err != nil {
		fmt.Fprintf(stderr, "benchrunner: table I: %v\n", err)
		return 1
	}
	entry.Results = append(entry.Results, tableI)
	fmt.Fprintf(stdout, "%-28s %12.2f ns/op %17.0f events/s\n", tableI.Name, tableI.NsPerOp, tableI.EventsPerSec)

	if *hyper {
		hs, err := runHyperscale(*quick)
		if err != nil {
			fmt.Fprintf(stderr, "benchrunner: hyperscale: %v\n", err)
			return 1
		}
		entry.Results = append(entry.Results, hs)
		fmt.Fprintf(stdout, "%-28s %12.2f ns/op %17.0f events/s %8.1f MiB peak\n",
			hs.Name, hs.NsPerOp, hs.EventsPerSec, float64(hs.PeakRSSBytes)/(1<<20))
	}

	if !*quick {
		campaign, err := runFig5Campaign()
		if err != nil {
			fmt.Fprintf(stderr, "benchrunner: fig5 campaign: %v\n", err)
			return 1
		}
		entry.Results = append(entry.Results, campaign...)
		for _, r := range campaign {
			fmt.Fprintf(stdout, "%-28s %12.2f ns/op\n", r.Name, r.NsPerOp)
		}
		if len(campaign) == 2 && campaign[1].NsPerOp > 0 {
			fmt.Fprintf(stdout, "%-28s %12.2fx at GOMAXPROCS=%d\n", "fig5-campaign speedup",
				campaign[0].NsPerOp/campaign[1].NsPerOp, runtime.GOMAXPROCS(0))
		}
	}

	if err := appendEntry(*out, entry); err != nil {
		fmt.Fprintf(stderr, "benchrunner: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "appended entry to %s\n", *out)
	return 0
}

// benchScheduleAndRun is the self-rescheduling chain: the dominant
// schedule->dispatch cycle of every simulation.
func benchScheduleAndRun(b *testing.B) {
	b.ReportAllocs()
	e := engine.New()
	count := 0
	var next func()
	next = func() {
		count++
		if count < b.N {
			e.After(simtime.Microsecond, next)
		}
	}
	b.ResetTimer()
	e.After(simtime.Microsecond, next)
	e.Run()
}

// benchChurn is the delay-timer workload shape: thousands of pending
// deadlines being canceled and re-armed.
func benchChurn(b *testing.B) {
	b.ReportAllocs()
	e := engine.New()
	const pending = 4096
	evs := make([]engine.Handle, pending)
	for i := range evs {
		evs[i] = e.Schedule(simtime.Time(i+1)*simtime.Second, func() {}) //simlint:allow handle benchmark-local churn buffer; handles never outlive the loop
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx := i % pending
		e.Cancel(evs[idx])
		evs[idx] = e.Schedule(e.Now()+simtime.Time(idx+1)*simtime.Second, func() {}) //simlint:allow handle benchmark-local churn buffer; handles never outlive the loop
	}
}

func benchTimerReset(b *testing.B) {
	b.ReportAllocs()
	e := engine.New()
	tm := engine.NewTimer(e, func() {})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm.Reset(simtime.Second)
	}
}

// benchPacketForwarding pushes one MTU packet across a k=4 fat-tree per
// iteration: the per-hop event path of packet mode.
func benchPacketForwarding(b *testing.B) {
	b.ReportAllocs()
	g, err := (topology.FatTree{K: 4, RateBps: 10e9}).Build()
	if err != nil {
		b.Fatal(err)
	}
	eng := engine.New()
	cfg := network.DefaultConfig(power.DataCenter10G(8))
	cfg.PortBufferBytes = 1 << 30
	n, err := network.New(eng, g, cfg)
	if err != nil {
		b.Fatal(err)
	}
	hosts := g.Hosts()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := n.TransferPackets(hosts[0], hosts[15], 1500, nil); err != nil {
			b.Fatal(err)
		}
		eng.Run()
	}
}

// benchFluidStep measures the fluid model's rate-sharing step: each
// iteration runs a contending pair of transfers into one destination
// plus a disjoint one, driving waterfill re-rates at every flow start
// and release. This is the per-transfer cost of fluid mode, the
// counterpart of the per-hop cost packet-forwarding measures.
func benchFluidStep(b *testing.B) {
	b.ReportAllocs()
	g, err := (topology.FatTree{K: 4, RateBps: 10e9}).Build()
	if err != nil {
		b.Fatal(err)
	}
	eng := engine.New()
	cfg := network.DefaultConfig(power.DataCenter10G(8))
	cfg.Model = network.ModelFluid
	n, err := network.New(eng, g, cfg)
	if err != nil {
		b.Fatal(err)
	}
	hosts := g.Hosts()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, tr := range [...]struct {
			src, dst int
		}{{0, 15}, {1, 15}, {2, 3}} {
			if err := n.TransferPackets(hosts[tr.src], hosts[tr.dst], 15_000, nil); err != nil {
				b.Fatal(err)
			}
		}
		eng.Run()
	}
}

// runFig5Campaign measures the Quick Fig. 5 sweep end to end, serially
// and on the full worker pool. The parallel/serial wall-clock ratio is
// the campaign runner's scalability figure: output is bit-identical
// either way, so any gap is pure core utilization. Best-of-3 damps
// scheduler noise.
func runFig5Campaign() ([]Result, error) {
	measure := func(workers int) (float64, error) {
		best := 0.0
		for i := 0; i < 3; i++ {
			p := experiments.QuickFig5()
			p.Exec = runner.Options{Workers: workers}
			start := time.Now() //simlint:allow determinism benchmarks measure wall time by definition
			if _, err := experiments.Fig5(p); err != nil {
				return 0, err
			}
			if wall := float64(time.Since(start).Nanoseconds()); best == 0 || wall < best { //simlint:allow determinism benchmarks measure wall time by definition
				best = wall
			}
		}
		return best, nil
	}
	serial, err := measure(1)
	if err != nil {
		return nil, err
	}
	parallel, err := measure(runtime.GOMAXPROCS(0))
	if err != nil {
		return nil, err
	}
	return []Result{
		{Name: "experiments/fig5-campaign-serial", NsPerOp: serial, Iterations: 3},
		{Name: "experiments/fig5-campaign-parallel", NsPerOp: parallel, Iterations: 3},
	}, nil
}

// runTableI reproduces the Table I scalability row and reports the
// engine's run-phase dispatch rate (TableI times DataCenter.Run only). Quick mode runs a single
// invocation instead of a timed benchmark loop.
func runTableI(quick bool) (Result, error) {
	p := experiments.QuickTableI()
	if quick {
		start := time.Now() //simlint:allow determinism benchmarks measure wall time by definition
		res, err := experiments.TableI(p)
		if err != nil {
			return Result{}, err
		}
		return Result{
			Name:         "experiments/table1-scalability",
			NsPerOp:      float64(time.Since(start).Nanoseconds()), //simlint:allow determinism benchmarks measure wall time by definition
			Iterations:   1,
			EventsPerSec: res.EventsPerSec,
		}, nil
	}
	var res *experiments.TableIResult
	var err error
	r := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err = experiments.TableI(p)
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	if err != nil {
		return Result{}, err
	}
	return Result{
		Name:         "experiments/table1-scalability",
		NsPerOp:      float64(r.T.Nanoseconds()) / float64(r.N),
		Iterations:   r.N,
		EventsPerSec: res.EventsPerSec,
	}, nil
}

// runHyperscale runs the million-server scalability row once (it is
// its own benchmark: build seconds, run-phase events/s, peak RSS).
// Quick mode shrinks the farm so tests and smoke jobs stay fast.
func runHyperscale(quick bool) (Result, error) {
	p := experiments.DefaultHyperscale()
	if quick {
		p = experiments.QuickHyperscale()
	}
	res, err := experiments.Hyperscale(p)
	if err != nil {
		return Result{}, err
	}
	return Result{
		Name:         "experiments/table1-hyperscale",
		NsPerOp:      res.RunSeconds * 1e9,
		Iterations:   1,
		EventsPerSec: res.EventsPerSec,
		PeakRSSBytes: res.PeakRSSBytes,
	}, nil
}

// appendEntry reads the existing trajectory (if any), appends entry, and
// rewrites the file.
func appendEntry(path string, entry Entry) error {
	var entries []Entry
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &entries); err != nil {
			return fmt.Errorf("existing %s is not a trajectory array: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	entries = append(entries, entry)
	data, err := json.MarshalIndent(entries, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
