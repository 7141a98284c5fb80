// Command holdcsim runs one simulation described by a scenario file and
// prints a human-readable report — the simulator's single-run front end
// (paper Fig. 1: workload model + server profile + switch profile in,
// runtime statistics out).
//
// Usage:
//
//	holdcsim FILE
//
// FILE is a scenario file (JSON with comments; DESIGN.md Sec. 10) read
// through scenario.LoadFile, the loader cmd/scenario uses: unknown
// fields are rejected, the scenario is validated, and a relative
// traceFile resolves against FILE's directory. The run carries the
// invariant checker; the report ends with the violation count and any
// violation exits 1. Matrix files are campaigns: run them with
// `scenario run`. To start from a built-in configuration:
//
//	scenario export -preset fig5-delaytimer -o f.json && holdcsim f.json
package main

import (
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"holdcsim/internal/core"
	"holdcsim/internal/scenario"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run executes one CLI invocation; factored from main so tests drive
// the binary in-process. Exit codes: 0 success, 1 load, run or
// invariant failure, 2 usage.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) != 1 || strings.HasPrefix(args[0], "-") {
		fmt.Fprintln(stderr, "usage: holdcsim FILE   (one scenario file; see DESIGN.md Sec. 10)")
		return 2
	}
	if err := simulate(args[0], stdout); err != nil {
		fmt.Fprintln(stderr, "holdcsim:", err)
		return 1
	}
	return 0
}

// simulate loads, runs and reports one scenario file. The returned
// error covers load and construction failures and invariant violations.
func simulate(path string, w io.Writer) error {
	ls, isMatrix, err := scenario.LoadFile(path)
	if err != nil {
		return err
	}
	if isMatrix {
		return fmt.Errorf("%s is a campaign matrix; run it with `scenario run`", path)
	}
	start := time.Now() //simlint:allow determinism wall-clock run timing for the CLI banner, not model state
	res, err := ls[0].Scenario.Run()
	if res.Results == nil {
		return err
	}
	fmt.Fprintf(w, "scenario: %s\n", ls[0].Label)
	report(w, res.Results, time.Since(start)) //simlint:allow determinism wall-clock run timing for the CLI banner, not model state
	fmt.Fprintf(w, "invariant violations: %d\n", len(res.Violations))
	return err
}

func report(w io.Writer, res *core.Results, wall time.Duration) {
	fmt.Fprintf(w, "simulated %.3f s in %v wall\n", res.End.Seconds(), wall.Round(time.Millisecond))
	fmt.Fprintf(w, "jobs: generated %d, completed %d\n", res.JobsGenerated, res.JobsCompleted)
	if res.Latency.Count() > 0 {
		fmt.Fprintf(w, "latency: mean %.3f ms  p50 %.3f ms  p90 %.3f ms  p95 %.3f ms  p99 %.3f ms  max %.3f ms\n",
			res.Latency.Mean()*1e3, res.Latency.Percentile(50)*1e3,
			res.Latency.Percentile(90)*1e3, res.Latency.Percentile(95)*1e3,
			res.Latency.Percentile(99)*1e3, res.Latency.Max()*1e3)
	}
	fmt.Fprintf(w, "server energy: %.1f kJ (cpu %.1f + dram %.1f + platform %.1f), mean power %.1f W\n",
		res.ServerEnergyJ/1e3, res.CPUEnergyJ/1e3, res.DRAMEnergyJ/1e3,
		res.PlatformEnergyJ/1e3, res.MeanServerPowerW)
	if res.NetworkEnergyJ > 0 {
		fmt.Fprintf(w, "network energy: %.1f kJ, mean power %.1f W\n",
			res.NetworkEnergyJ/1e3, res.MeanNetworkPowerW)
		fmt.Fprintf(w, "network: %d flows, %d packets delivered, %d dropped\n",
			res.NetStats.FlowsCompleted, res.NetStats.PacketsDelivered, res.NetStats.PacketsDropped)
	}
	states := make([]string, 0, len(res.Residency))
	for s := range res.Residency {
		states = append(states, s)
	}
	sort.Strings(states)
	fmt.Fprint(w, "residency:")
	for _, s := range states {
		fmt.Fprintf(w, " %s=%.1f%%", s, res.Residency[s]*100)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "wakeups: %d server, %d switch\n", res.ServerWakeups, res.SwitchWakeups)
}
