// Command tracegen emits synthetic workload traces (one arrival
// timestamp per line, seconds) on stdout — the stand-ins for the
// Wikipedia [59] and NLANR [2] traces used by the paper (see DESIGN.md's
// substitution table). Generated files replay as a scenario file's
// trace-file arrival (`holdcsim FILE`, `scenario run`) or through the
// library's TraceReplay.
//
// Usage:
//
//	tracegen -kind wikipedia -duration 3600 -rate 100 -seed 7 > wiki.trace
//	tracegen -kind nlanr -duration 1000 -seed 9 > nlanr.trace
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"holdcsim/internal/rng"
	"holdcsim/internal/trace"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run executes one CLI invocation; factored from main so tests drive
// the binary in-process.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tracegen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	kind := fs.String("kind", "wikipedia", "wikipedia|nlanr")
	duration := fs.Float64("duration", 3600, "trace length in seconds")
	rate := fs.Float64("rate", 100, "mean arrivals/second (wikipedia)")
	onRate := fs.Float64("onrate", 40, "burst arrival rate (nlanr)")
	seed := fs.Uint64("seed", 1, "random seed")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	r := rng.New(*seed)
	var tr *trace.Trace
	switch *kind {
	case "wikipedia":
		tr = trace.SyntheticWikipedia(trace.DefaultWikipediaConfig(*duration, *rate), r)
	case "nlanr":
		cfg := trace.DefaultNLANRConfig(*duration)
		cfg.OnRate = *onRate
		tr = trace.SyntheticNLANR(cfg, r)
	default:
		fmt.Fprintf(stderr, "tracegen: unknown kind %q\n", *kind)
		return 2
	}
	fmt.Fprintf(stderr, "tracegen: %d arrivals over %.0f s (mean %.2f/s)\n",
		tr.Len(), tr.Duration(), tr.MeanRate())
	if err := tr.Write(stdout); err != nil {
		fmt.Fprintln(stderr, "tracegen:", err)
		return 1
	}
	return 0
}
