package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
)

// runAll runs every workload in a child process of its own, so each peak
// RSS belongs to one workload, then prints a table of the headline
// metrics. With traced set it prints the layer CPU shares instead and
// checks the contrast each workload was chosen for.
func runAll(seed int64, seconds float64, traced bool, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "simbench:", err)
		return 1
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	total := report{Correct: true, Metrics: map[string]metric{}}
	reps := map[string]report{}
	for _, b := range workloads {
		var out bytes.Buffer
		cmd := exec.Command(exe, "--workload", b.name, "--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", trace)
		cmd.Stdout = io.MultiWriter(stdout, &out)
		cmd.Stderr = stderr
		runErr := cmd.Run()
		rep, err := lastReport(out.Bytes())
		if err == nil {
			err = runErr
		}
		if err != nil {
			fmt.Fprintf(stderr, "simbench: %s: %v\n", b.name, err)
			total.Correct = false
			continue
		}
		reps[b.name] = rep
		total.Correct = total.Correct && rep.Correct
		total.Attempted += rep.Attempted
		total.Failed += rep.Failed
		for k, v := range rep.Metrics {
			total.Metrics[b.name+"."+k] = v
		}
	}

	fmt.Fprintln(stdout)
	if traced {
		fmt.Fprintf(stdout, "%-20s", "cpu share")
		for _, b := range workloads {
			fmt.Fprintf(stdout, " %19s", b.name)
		}
		fmt.Fprintln(stdout)
		for _, layer := range append(cpuLayers, "other") {
			fmt.Fprintf(stdout, "%-20s", layer)
			for _, b := range workloads {
				fmt.Fprintf(stdout, " %19.4f", reps[b.name].Metrics[layer+".cpu_frac"].Value)
			}
			fmt.Fprintln(stdout)
		}
		if !contrasts(reps, stdout) {
			total.Correct = false
		}
	} else {
		fmt.Fprintf(stdout, "%-20s %12s %10s %12s %12s\n", "workload", "jobs_per_s", "setup_s", "peak_rss_mb", "failed_frac")
		for _, b := range workloads {
			r := reps[b.name]
			failed := 0.0
			if r.Attempted > 0 {
				failed = float64(r.Failed) / float64(r.Attempted)
			}
			fmt.Fprintf(stdout, "%-20s %12.1f %10.6f %12.1f %12g\n", b.name,
				r.Metrics["jobs_per_s"].Value, r.Metrics["setup_s"].Value, r.Metrics["peak_rss_mb"].Value, failed)
		}
	}
	line, err := json.Marshal(total)
	if err != nil {
		fmt.Fprintln(stderr, "simbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !total.Correct {
		return 1
	}
	return 0
}

// contrasts checks that each workload loads the layer it was chosen for
// at least three times as heavily, by CPU share, as the workload it is
// contrasted with.
func contrasts(reps map[string]report, w io.Writer) bool {
	share := func(workload string, layers ...string) float64 {
		sum := 0.0
		for _, l := range layers {
			sum += reps[workload].Metrics[l+".cpu_frac"].Value
		}
		return sum
	}
	checks := []struct {
		what     string
		hi, lo   float64
		hiW, loW string
	}{
		{"sched", share("hyperscale-sharded", "sched"), share("farm-table1", "sched"), "hyperscale-sharded", "farm-table1"},
		{"server+stats", share("farm-table1", "server", "stats"), share("fattree-packet", "server", "stats"), "farm-table1", "fattree-packet"},
		{"engine", share("fattree-packet", "engine"), share("fattree-fluid", "engine"), "fattree-packet", "fattree-fluid"},
		{"network", min(share("fattree-packet", "network"), share("fattree-fluid", "network")),
			max(share("farm-table1", "network"), share("hyperscale-sharded", "network")), "both fabrics", "both farms"},
	}
	ok := true
	for _, c := range checks {
		verdict := "ok"
		if c.hi < 3*c.lo {
			verdict = "BELOW 3x"
			ok = false
		}
		fmt.Fprintf(w, "contrast %-13s %-18s %.4f vs %-18s %.4f  %s\n", c.what, c.hiW, c.hi, c.loW, c.lo, verdict)
	}
	return ok
}

// lastReport parses the result line a child process printed last.
func lastReport(out []byte) (report, error) {
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var rep report
	if len(lines) == 0 || json.Unmarshal(lines[len(lines)-1], &rep) != nil {
		return rep, errors.New("no result line")
	}
	return rep, nil
}
