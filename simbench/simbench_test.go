package main

import (
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"
	"time"

	"holdcsim/internal/network"
)

// small returns scaled-down instances of the four workloads: the same
// builders, placers, models and seams, in farms small enough for tests.
func small() []bench {
	return []bench{
		scenarioBench("farm", 3, farmTable1(64, 2000)),
		hyperscaleBench("hyperscale", 3, 8, 2000),
		scenarioBench("packet", 3, fatTree(4, 100, network.ModelPacket)),
		scenarioBench("fluid", 3, fatTree(4, 100, network.ModelFluid)),
	}
}

// digestOf runs b once at seed and returns the run's digest.
func digestOf(t *testing.T, b bench, seed uint64, check bool, tp *tap) string {
	t.Helper()
	o, err := simulate(b, seed, check, tp, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := verify(b, o.res); err != nil {
		t.Fatalf("%s: %v", b.name, err)
	}
	if o.violations != 0 {
		t.Fatalf("%s: %d invariant violations", b.name, o.violations)
	}
	return digest(o.res, o.events)
}

func TestDigestIsDeterministicAndFollowsSeed(t *testing.T) {
	for _, b := range small() {
		a, again, other := digestOf(t, b, 1, false, nil), digestOf(t, b, 1, false, nil), digestOf(t, b, 2, false, nil)
		if a != again {
			t.Errorf("%s: seed 1 gave digests %s and %s", b.name, a, again)
		}
		if a == other {
			t.Errorf("%s: seeds 1 and 2 share digest %s", b.name, a)
		}
	}
}

func TestTracedAndCheckedRunsMatchPlainRun(t *testing.T) {
	for _, b := range small() {
		plain := digestOf(t, b, 5, false, nil)
		tp := &tap{}
		if traced := digestOf(t, b, 5, false, tp); traced != plain {
			t.Errorf("%s: traced digest %s, plain %s", b.name, traced, plain)
		}
		if checked := digestOf(t, b, 5, true, nil); checked != plain {
			t.Errorf("%s: checked digest %s, plain %s", b.name, checked, plain)
		}
		if tp.place.count() == 0 || tp.next.count() == 0 || tp.newJob.count() != int(b.jobs) {
			t.Errorf("%s: taps saw %d placements, %d arrivals, %d jobs", b.name,
				tp.place.count(), tp.next.count(), tp.newJob.count())
		}
		if tp.tasks < b.jobs || tp.queueMax == 0 {
			t.Errorf("%s: %d tasks, queue high-water %d", b.name, tp.tasks, tp.queueMax)
		}
	}
}

func TestClassify(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.mapaccess2", "runtime.mapassign", "holdcsim/internal/network.(*Network).waterFill",
			"holdcsim/internal/engine.(*Engine).Run"}, "network"},
		{[]string{"runtime.mallocgc", "runtime.newobject", "holdcsim/internal/job.(*Job).AddTask",
			"holdcsim/internal/workload.SingleTask.NewJob"}, "job"},
		{[]string{"holdcsim/internal/stats.(*Residency).SetState", "holdcsim/internal/server.(*Server).recompute"}, "stats"},
		{[]string{"holdcsim/internal/engine.(*Engine).Step.func1", "holdcsim/internal/engine.(*Engine).Run"}, "engine"},
		{[]string{"holdcsim/internal/sched.ShardedLeastLoaded.Place", "main.placerTap.Place"}, "sched"},
		{[]string{"time.Now", "main.placerTap.Place", "holdcsim/internal/sched.(*Scheduler).Select"}, "bench"},
		{[]string{"holdcsim/internal/analysis/atest.Run"}, "analysis"},
		{[]string{"runtime.gcBgMarkWorker", "runtime.goexit"}, "runtime"},
		{nil, "runtime"},
	} {
		if got := classify(c.stack); got != c.want {
			t.Errorf("classify(%q) = %s, want %s", c.stack, got, c.want)
		}
	}
	counts := layerCounts([]sample{
		{count: 2, stack: []string{"holdcsim/internal/engine.(*Engine).Run"}},
		{count: 3, stack: []string{"runtime.memmove"}},
		{count: 1, stack: []string{"holdcsim/internal/engine.siftDown"}},
	})
	if counts["engine"] != 3 || counts["runtime"] != 3 || len(counts) != 2 {
		t.Errorf("layerCounts = %v", counts)
	}
}

//go:noinline
func busyWork(d time.Duration) int {
	n := 0
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			n += i * i
		}
	}
	return n
}

func TestDecodeProfileNamesStacks(t *testing.T) {
	samples, err := profile(func() error {
		busyWork(300 * time.Millisecond)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var total, inBusy int64
	for _, s := range samples {
		total += s.count
		for _, fn := range s.stack {
			if strings.HasSuffix(fn, ".busyWork") {
				inBusy += s.count
				break
			}
		}
	}
	// 300 ms at profileHz gives ~150 samples; demand a fraction of that
	// so a loaded machine cannot fail the test.
	if total < 10 || inBusy*2 < total {
		t.Fatalf("%d samples, %d in busyWork", total, inBusy)
	}
}

func TestCallPercentiles(t *testing.T) {
	var c calls
	for i := 100; i >= 1; i-- {
		c.add(time.Duration(i))
	}
	if c.count() != 100 || c.total() != 5050e-9 {
		t.Errorf("count %d total %g", c.count(), c.total())
	}
	if p50, p99 := c.percentile(50), c.percentile(99); p50 != 50 || p99 != 99 {
		t.Errorf("p50 %g p99 %g", p50, p99)
	}
}

// TestMetricsMatchBenchmarkFile runs both modes on a small workload and
// checks that they print exactly the metrics, with the units, that
// BENCHMARK.json declares.
func TestMetricsMatchBenchmarkFile(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	b := small()[1] // the hyperscale shape exercises every set-up span
	for _, mode := range []struct {
		name string
		want []struct{ Name, Unit string }
		run  func(*session) (map[string]metric, error)
	}{
		{"end-to-end", spec.EndToEnd, func(s *session) (map[string]metric, error) { return s.endToEnd(0.01) }},
		{"per-layer", spec.PerLayer, func(s *session) (map[string]metric, error) { return s.layers(0.2, 1) }},
	} {
		s := &session{b: b, seed: 1, w: io.Discard}
		got, err := mode.run(s)
		if err != nil {
			t.Fatalf("%s: %v", mode.name, err)
		}
		if len(got) != len(mode.want) {
			t.Errorf("%s: %d metrics, BENCHMARK.json declares %d", mode.name, len(got), len(mode.want))
		}
		for _, w := range mode.want {
			if m, ok := got[w.Name]; !ok || m.Unit != w.Unit {
				t.Errorf("%s: metric %s = %+v, want unit %s", mode.name, w.Name, m, w.Unit)
			}
		}
		if s.attempted == 0 || s.failed != 0 {
			t.Errorf("%s: attempted %d, failed %d", mode.name, s.attempted, s.failed)
		}
	}
}
