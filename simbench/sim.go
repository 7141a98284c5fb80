package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"holdcsim/internal/core"
)

// outcome is one build-and-run of a workload.
type outcome struct {
	res        *core.Results
	events     uint64  // engine events dispatched
	dispatches int64   // tasks handed to servers
	setup      float64 // host seconds from description to runnable data center
	spans      setupSpans
	run        float64 // host seconds in DataCenter.Run
	runCPU     float64 // process CPU seconds (user and system) in DataCenter.Run
	runSteal   float64 // share of the host's CPU time stolen by the hypervisor during Run
	collect    float64 // host seconds in a second DataCenter.Collect
	violations int     // invariant violations (checked runs only)
}

// simulate builds b for seed and runs it once. With check set the
// invariant checker is attached; a tap, when non-nil, times the seams
// and fn, when non-nil, wraps the run phase (the CPU profiler hooks in
// there).
func simulate(b bench, seed uint64, check bool, tp *tap, fn func(run func() error) error) (outcome, error) {
	var o outcome
	runtime.GC() // so that no earlier run's garbage is marked during this one
	start := time.Now()
	dc, err := b.build(seed, check, tp, &o.spans)
	o.setup = secondsSince(start)
	if err != nil {
		return o, fmt.Errorf("%s: build: %w", b.name, err)
	}
	tp.observe(dc)
	runtime.GC() // likewise for the set-up's garbage

	run := func() error {
		cpu := cpuSeconds()
		steal, total := hostTicks()
		start := time.Now()
		res, err := dc.Run()
		o.run = secondsSince(start)
		o.runCPU = cpuSeconds() - cpu
		if steal2, total2 := hostTicks(); total2 > total {
			o.runSteal = float64(steal2-steal) / float64(total2-total)
		}
		o.res = res
		return err
	}
	if fn == nil {
		err = run()
	} else {
		err = fn(run)
	}
	if c := dc.Checker(); c != nil {
		o.violations = len(c.Violations()) + c.Suppressed()
	}
	if err != nil {
		return o, fmt.Errorf("%s: run: %w", b.name, err)
	}
	o.events = dc.Eng.Dispatched
	o.dispatches = dc.Sched.TasksDispatched()

	start = time.Now()
	dc.Collect()
	o.collect = secondsSince(start)
	return o, nil
}

// cpuSeconds reports the CPU time the process has used, user and
// system, in seconds.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// hostTicks reads the host's cumulative CPU time from /proc/stat, in
// clock ticks: the part the hypervisor stole, and the total. Both are 0
// where the file is unreadable.
func hostTicks() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	// user nice system idle iowait irq softirq steal; guest time is
	// already counted in user.
	for i, s := range f[1:9] {
		v, _ := strconv.ParseUint(s, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// digest condenses everything a run simulated into 64 bits: job counts,
// the end time, the bit patterns of every energy and power total, the
// latency moments, residency, wake-ups, network counters and the engine's
// event count. Two runs of one workload and seed must agree exactly.
func digest(r *core.Results, events uint64) string {
	h := fnv.New64a()
	put := func(vs ...uint64) {
		var b [8]byte
		for _, v := range vs {
			binary.LittleEndian.PutUint64(b[:], v)
			h.Write(b[:])
		}
	}
	f := math.Float64bits
	put(uint64(r.JobsGenerated), uint64(r.JobsCompleted), uint64(r.JobsLost),
		uint64(r.TasksAborted), uint64(r.End), events)
	put(f(r.ServerEnergyJ), f(r.CPUEnergyJ), f(r.DRAMEnergyJ), f(r.PlatformEnergyJ),
		f(r.NetworkEnergyJ), f(r.MeanServerPowerW), f(r.MeanNetworkPowerW))
	put(uint64(r.Latency.Count()), f(r.Latency.Mean()), f(r.Latency.Percentile(99)))
	states := make([]string, 0, len(r.Residency))
	for s := range r.Residency {
		states = append(states, s)
	}
	slices.Sort(states)
	for _, s := range states {
		h.Write([]byte(s))
		put(f(r.Residency[s]))
	}
	put(uint64(r.ServerWakeups), uint64(r.SwitchWakeups))
	n := r.NetStats
	put(uint64(n.FlowsStarted), uint64(n.FlowsCompleted), uint64(n.FlowsFailed),
		uint64(n.PacketsSent), uint64(n.PacketsDelivered), uint64(n.PacketsDropped),
		uint64(n.BytesDelivered))
	return fmt.Sprintf("%016x", h.Sum64())
}

// verify checks a run's results against what the workload must produce:
// every job generated, finite positive energy, residency fractions that
// sum to one, conserved packets and flows, and a network that carried
// traffic exactly when the workload has one.
func verify(b bench, r *core.Results) error {
	if r.JobsGenerated != b.jobs {
		return fmt.Errorf("generated %d jobs, want %d", r.JobsGenerated, b.jobs)
	}
	if r.JobsCompleted+r.JobsLost > r.JobsGenerated {
		return fmt.Errorf("completed %d + lost %d exceed generated %d", r.JobsCompleted, r.JobsLost, r.JobsGenerated)
	}
	if e := r.ServerEnergyJ; !(e > 0) || math.IsInf(e, 0) {
		return fmt.Errorf("server energy %g J", e)
	}
	if m := r.Latency.Mean(); !(m > 0) || math.IsInf(m, 0) {
		return fmt.Errorf("mean latency %g s", m)
	}
	sum := 0.0
	for _, v := range r.Residency {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		return fmt.Errorf("residency fractions sum to %g", sum)
	}
	n := r.NetStats
	if n.PacketsSent != n.PacketsDelivered+n.PacketsDropped {
		return fmt.Errorf("packets sent %d != delivered %d + dropped %d", n.PacketsSent, n.PacketsDelivered, n.PacketsDropped)
	}
	if n.FlowsStarted != n.FlowsCompleted {
		return fmt.Errorf("flows started %d != completed %d", n.FlowsStarted, n.FlowsCompleted)
	}
	if b.net != (n.PacketsSent > 0) {
		return fmt.Errorf("workload network=%v but %d packets sent", b.net, n.PacketsSent)
	}
	return nil
}
