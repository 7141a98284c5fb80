// Command simbench is the simulator's performance benchmark. It builds
// and runs one fixed workload over and over for a set number of host
// seconds, checks that every run simulates exactly the same outcome, and
// prints one JSON object as its last line of output: the end-to-end
// metrics, or with -trace 1 the per-layer metrics of separately traced
// runs.
//
// Run it through run.sh from the repository root, which builds it first:
//
//	bash simbench/run.sh --workload fattree-packet --seed 37 --seconds 15 --trace 0
//	bash simbench/run.sh --workload all --trace 1
//
// README.md in this directory explains the workloads and the metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"time"
)

const (
	// minRuns is the fewest timed runs behind an end-to-end median.
	minRuns = 5
	// maxSetups is the number of set-ups behind the setup_s median that
	// build-only set-ups top the timed runs' set-ups up to, within a
	// tenth of the measuring time.
	maxSetups = 201
	// minSamples is the fewest CPU-profile samples behind the layer
	// shares of a traced invocation.
	minSamples = 1000
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("simbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Int64("seed", -1, "simulation seed; negative uses the workload's default")
	seconds := fs.Float64("seconds", 15, "host seconds to measure for")
	trace := fs.Int("trace", 0, "0 reports end-to-end metrics, 1 per-layer metrics from traced runs")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fs.Usage()
		return 2
	}
	fmt.Fprintln(stdout, fingerprint())
	if *name == "all" {
		return runAll(*seed, *seconds, *trace == 1, stdout, stderr)
	}
	b, err := lookup(*name)
	if err != nil {
		fmt.Fprintln(stderr, "simbench:", err)
		return 2
	}
	s := &session{b: b, seed: b.seed, w: stdout}
	if *seed >= 0 {
		s.seed = uint64(*seed)
	}
	fmt.Fprintf(stdout, "workload %s seed %d\n", b.name, s.seed)

	var m map[string]metric
	if *trace == 1 {
		m, err = s.layers(*seconds, minSamples)
	} else {
		m, err = s.endToEnd(*seconds)
	}
	rep := report{Correct: err == nil, Attempted: s.attempted, Failed: s.failed, Metrics: m}
	if err != nil {
		fmt.Fprintln(stderr, "simbench:", err)
		rep.Metrics = map[string]metric{}
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(stderr, "simbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !rep.Correct {
		return 1
	}
	return 0
}

// report is the benchmark's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// session runs one workload at one seed and holds what every run must
// agree on.
type session struct {
	b    bench
	seed uint64
	w    io.Writer

	digest    string // the first run's digest
	attempted int64  // jobs generated over all runs
	failed    int64  // jobs generated but not completed
}

// do runs the workload once and checks the outcome: the run succeeds,
// its results pass verify, its digest matches every earlier run's, and a
// checked run reports no invariant violation.
func (s *session) do(label string, check bool, tp *tap, fn func(run func() error) error) (outcome, error) {
	o, err := simulate(s.b, s.seed, check, tp, fn)
	if err == nil {
		err = verify(s.b, o.res)
	}
	if err == nil && o.violations > 0 {
		err = fmt.Errorf("%d invariant violations", o.violations)
	}
	if err != nil {
		// A run that fails counts all its jobs as failed.
		s.attempted += s.b.jobs
		s.failed += s.b.jobs
		return o, fmt.Errorf("%s run: %w", label, err)
	}
	s.attempted += o.res.JobsGenerated
	s.failed += o.res.JobsGenerated - o.res.JobsCompleted
	d := digest(o.res, o.events)
	if s.digest == "" {
		s.digest = d
		r := o.res
		fmt.Fprintf(s.w, "digest %s: jobs %d/%d lost %d, end %v, %d events, energy %.6g J, latency mean %.6g s p99 %.6g s, wakeups %d, net %+v\n",
			d, r.JobsCompleted, r.JobsGenerated, r.JobsLost, r.End, o.events, r.ServerEnergyJ,
			r.Latency.Mean(), r.Latency.Percentile(99), r.ServerWakeups, r.NetStats)
	} else if d != s.digest {
		return o, fmt.Errorf("%s run: digest %s differs from %s", label, d, s.digest)
	}
	fmt.Fprintf(s.w, "%-8s setup %.6f s (config %.6f, shards %.6f, build %.6f)  run %.6f s (cpu %.6f s, steal %.1f%%)  collect %.6f s  %.1f jobs/s, %.1f per CPU s  digest %s\n",
		label, o.setup, o.spans.config, o.spans.shards, o.spans.build, o.run, o.runCPU, 100*o.runSteal, o.collect,
		jobsPerSecond(o), float64(o.res.JobsCompleted)/o.runCPU, d)
	return o, nil
}

func jobsPerSecond(o outcome) float64 { return float64(o.res.JobsCompleted) / o.run }

// endToEnd times untraced runs for the given host seconds (and at least
// minRuns of them), then makes one invariant-checked run.
//
// A run's rate is the jobs it completed per CPU second the process spent
// in its run phase, user and system, on every thread. Wall-clock time on
// a shared virtual machine also counts the time the hypervisor gives
// other tenants, which the run line reports as host steal; CPU time
// leaves it out.
func (s *session) endToEnd(seconds float64) (map[string]metric, error) {
	var rates, walls, setups, steals []float64
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for len(rates) < minRuns || time.Now().Before(deadline) {
		o, err := s.do("timed", false, nil, nil)
		if err != nil {
			return nil, err
		}
		rates = append(rates, float64(o.res.JobsCompleted)/o.runCPU)
		walls = append(walls, jobsPerSecond(o))
		setups = append(setups, o.setup)
		steals = append(steals, o.runSteal)
	}
	// Long runs leave few set-ups; top them up with build-only ones.
	topUp := time.Now().Add(time.Duration(seconds / 10 * float64(time.Second)))
	for len(setups) < maxSetups && time.Now().Before(topUp) {
		runtime.GC()
		var sp setupSpans
		start := time.Now()
		if _, err := s.b.build(s.seed, false, nil, &sp); err != nil {
			return nil, fmt.Errorf("%s: build: %w", s.b.name, err)
		}
		setups = append(setups, secondsSince(start))
	}
	rss, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}
	if _, err := s.do("checked", true, nil, nil); err != nil {
		return nil, err
	}
	m := map[string]metric{
		"jobs_per_s":  {median(rates), "jobs/s"},
		"setup_s":     {median(setups), "s"},
		"peak_rss_mb": {rss, "MiB"},
	}
	fmt.Fprintf(s.w, "summary: %d runs, %d set-ups: jobs_per_s %.1f setup_s %.6f peak_rss_mb %.1f failed_frac %g; wall-clock jobs/s %.1f, host steal %.1f%% (medians)\n",
		len(rates), len(setups), m["jobs_per_s"].Value, m["setup_s"].Value, rss,
		float64(s.failed)/float64(s.attempted), median(walls), 100*median(steals))
	return m, nil
}

// layers makes one untraced run (the baseline, with GC metrics), one
// checked run, and then traced runs until the given host seconds have
// passed and the profile holds at least minSamples samples.
func (s *session) layers(seconds float64, minSamples int64) (map[string]metric, error) {
	var gc gcDelta
	base, err := s.do("base", false, nil, func(run func() error) error {
		var err error
		gc, err = measureGC(run)
		return err
	})
	if err != nil {
		return nil, err
	}
	checked, err := s.do("checked", true, nil, nil)
	if err != nil {
		return nil, err
	}

	var (
		agg               tap
		counts            = map[string]int64{}
		samples           int64
		collectS, configS []float64
		shardsS, buildS   []float64
	)
	record := func(o outcome) {
		collectS = append(collectS, o.collect)
		configS = append(configS, o.spans.config)
		shardsS = append(shardsS, o.spans.shards)
		buildS = append(buildS, o.spans.build)
	}
	record(base)
	var tracedRun []float64
	start := time.Now()
	for elapsed := 0.0; (elapsed < seconds || samples < minSamples) && elapsed < 4*seconds; elapsed = secondsSince(start) {
		tp := &tap{}
		var prof []sample
		o, err := s.do("traced", false, tp, func(run func() error) error {
			var err error
			prof, err = profile(run)
			return err
		})
		if err != nil {
			return nil, err
		}
		record(o)
		tracedRun = append(tracedRun, o.run)
		for layer, n := range layerCounts(prof) {
			counts[layer] += n
			samples += n
		}
		agg.place.ns = append(agg.place.ns, tp.place.ns...)
		agg.next.ns = append(agg.next.ns, tp.next.ns...)
		agg.newJob.ns = append(agg.newJob.ns, tp.newJob.ns...)
		agg.tasks, agg.queueMax, agg.heapMax = tp.tasks, tp.queueMax, tp.heapMax
	}
	if samples < minSamples {
		return nil, fmt.Errorf("traced runs collected %d CPU samples, want %d", samples, minSamples)
	}
	n := float64(len(tracedRun))
	for _, seam := range []struct {
		name string
		c    *calls
	}{{"sched.Place", &agg.place}, {"workload.Next", &agg.next}, {"workload.NewJob", &agg.newJob}} {
		fmt.Fprintf(s.w, "seam %-16s %d calls in %d runs, %.6f s per run, p50 %.0f ns, p99 %.0f ns\n", seam.name,
			seam.c.count(), len(tracedRun), seam.c.total()/n, seam.c.percentile(50), seam.c.percentile(99))
	}
	r := base.res
	frac := func(layer string) metric { return metric{float64(counts[layer]) / float64(samples), "frac"} }
	m := map[string]metric{
		"failed_frac":             {float64(s.failed) / float64(s.attempted), "frac"},
		"trace.samples":           {float64(samples), "count"},
		"engine.events":           {float64(base.events), "count"},
		"engine.events_per_s":     {float64(base.events) / base.run, "1/s"},
		"engine.queue_len_max":    {float64(agg.queueMax), "count"},
		"server.wakeups":          {float64(r.ServerWakeups), "count"},
		"server.sleep_heap_max":   {float64(agg.heapMax), "count"},
		"sched.place_calls":       {float64(agg.place.count()) / n, "count"},
		"sched.place_s":           {agg.place.total() / n, "s"},
		"sched.place_ns_p50":      {agg.place.percentile(50), "ns"},
		"sched.place_ns_p99":      {agg.place.percentile(99), "ns"},
		"sched.dispatches":        {float64(base.dispatches), "count"},
		"network.packets_sent":    {float64(r.NetStats.PacketsSent), "count"},
		"network.packets_dropped": {float64(r.NetStats.PacketsDropped), "count"},
		"network.flows_started":   {float64(r.NetStats.FlowsStarted), "count"},
		"network.switch_wakeups":  {float64(r.SwitchWakeups), "count"},
		"workload.next_s":         {agg.next.total() / n, "s"},
		"workload.newjob_s":       {agg.newJob.total() / n, "s"},
		"workload.tasks":          {float64(agg.tasks), "count"},
		"core.build_s":            {median(buildS), "s"},
		"topology.shards_s":       {median(shardsS), "s"},
		"scenario.config_s":       {median(configS), "s"},
		"core.collect_s":          {median(collectS), "s"},
		"gc.alloc_mb":             {gc.allocMiB, "MiB"},
		"gc.cycles":               {gc.cycles, "count"},
		"gc.cpu_s":                {gc.cpuS, "s"},
		"gc.live_heap_mb":         {gc.liveMiB, "MiB"},
		"invariant.run_ratio":     {checked.run / base.run, "ratio"},
		"trace.overhead_ratio":    {median(tracedRun) / base.run, "ratio"},
	}
	for _, layer := range cpuLayers {
		m[layer+".cpu_frac"] = frac(layer)
	}
	other := int64(0)
	for layer, c := range counts {
		if !slices.Contains(cpuLayers, layer) {
			other += c
		}
	}
	m["other.cpu_frac"] = metric{float64(other) / float64(samples), "frac"}
	return m, nil
}

// cpuLayers are the layers whose CPU share is reported by name; the
// rest of the repository's packages are summed into other.cpu_frac.
var cpuLayers = []string{"engine", "server", "stats", "sched", "workload", "network",
	"job", "rng", "dist", "core", "bench", "runtime"}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// gcDelta is the Go runtime's memory work over one run phase.
type gcDelta struct {
	allocMiB float64 // heap bytes allocated
	cycles   float64 // completed GC cycles
	cpuS     float64 // estimated CPU seconds spent in GC
	liveMiB  float64 // live heap after the last GC
}

var gcMetrics = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/gc/heap/live:bytes",
}

// measureGC reads the runtime's GC metrics around run.
func measureGC(run func() error) (gcDelta, error) {
	read := func() ([]float64, error) {
		ss := make([]metrics.Sample, len(gcMetrics))
		for i, name := range gcMetrics {
			ss[i].Name = name
		}
		metrics.Read(ss)
		out := make([]float64, len(ss))
		for i, s := range ss {
			switch s.Value.Kind() {
			case metrics.KindUint64:
				out[i] = float64(s.Value.Uint64())
			case metrics.KindFloat64:
				out[i] = s.Value.Float64()
			default:
				return nil, fmt.Errorf("runtime metric %s unsupported", s.Name)
			}
		}
		return out, nil
	}
	before, err := read()
	if err != nil {
		return gcDelta{}, err
	}
	if err := run(); err != nil {
		return gcDelta{}, err
	}
	after, err := read()
	if err != nil {
		return gcDelta{}, err
	}
	return gcDelta{
		allocMiB: (after[0] - before[0]) / (1 << 20),
		cycles:   after[1] - before[1],
		cpuS:     after[2] - before[2],
		liveMiB:  after[3] / (1 << 20),
	}, nil
}
