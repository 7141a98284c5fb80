package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"holdcsim/internal/scenario"
)

const testdata = "../../internal/scenario/testdata"

// cli drives the binary in-process and captures stdout/stderr.
func cli(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errw bytes.Buffer
	code = run(args, &out, &errw)
	return code, out.String(), errw.String()
}

// line returns the first report line starting with prefix.
func line(t *testing.T, report, prefix string) string {
	t.Helper()
	for _, l := range strings.Split(report, "\n") {
		if strings.HasPrefix(l, prefix) {
			return l
		}
	}
	t.Fatalf("no %q line in report:\n%s", prefix, report)
	return ""
}

// TestRunMatchesInMemoryScenario: the file front end is the in-memory
// Scenario.Run of the decoded file — same jobs, same energy — with
// zero invariant violations.
func TestRunMatchesInMemoryScenario(t *testing.T) {
	file := filepath.Join(testdata, "fig5-delaytimer.json")
	code, got, errw := cli(t, file)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errw)
	}
	data, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	s, err := scenario.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	report(&want, res.Results, time.Second)
	if res.Results.JobsCompleted == 0 {
		t.Fatal("fixture completed no jobs")
	}
	for _, prefix := range []string{"jobs:", "server energy:", "residency:", "wakeups:"} {
		if g, w := line(t, got, prefix), line(t, want.String(), prefix); g != w {
			t.Errorf("%s line diverged from the in-memory run:\nfile:   %s\nmemory: %s", prefix, g, w)
		}
	}
	if l := line(t, got, "scenario:"); l != "scenario: "+s.String() {
		t.Errorf("label line %q, want the scenario's canonical label", l)
	}
	if l := line(t, got, "invariant violations:"); l != "invariant violations: 0" {
		t.Errorf("violation line %q", l)
	}
}

// TestRunNetworkedScenario: a packet-mode scenario reports its network
// energy and traffic, matching the in-memory run.
func TestRunNetworkedScenario(t *testing.T) {
	s, err := scenario.Preset("fig13-switch-validation")
	if err != nil {
		t.Fatal(err)
	}
	data, err := scenario.Encode(s)
	if err != nil {
		t.Fatal(err)
	}
	file := filepath.Join(t.TempDir(), "packet.json")
	if err := os.WriteFile(file, data, 0o644); err != nil {
		t.Fatal(err)
	}
	code, got, errw := cli(t, file)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errw)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Results.NetStats.PacketsDelivered == 0 {
		t.Fatal("packet preset delivered no packets")
	}
	var want bytes.Buffer
	report(&want, res.Results, time.Second)
	for _, prefix := range []string{"network energy:", "network:"} {
		if g, w := line(t, got, prefix), line(t, want.String(), prefix); g != w {
			t.Errorf("%s line diverged from the in-memory run:\nfile:   %s\nmemory: %s", prefix, g, w)
		}
	}
}

// TestRunTraceFileFromOtherDir: a relative traceFile resolves against
// the scenario file's directory, not the working directory.
func TestRunTraceFileFromOtherDir(t *testing.T) {
	file, err := filepath.Abs(filepath.Join(testdata, "tracefile.json"))
	if err != nil {
		t.Fatal(err)
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(wd); err != nil {
			t.Error(err)
		}
	})

	code, out, errw := cli(t, file)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errw)
	}
	if l := line(t, out, "jobs:"); strings.HasPrefix(l, "jobs: generated 0,") {
		t.Fatalf("trace replay generated no jobs: %s", l)
	}
	if l := line(t, out, "scenario:"); !strings.Contains(l, `"arrivals.trace"`) {
		t.Errorf("label does not carry the as-written trace path: %s", l)
	}
}

// TestRunRejects: bad input exits 1 with a diagnostic, bad usage 2.
func TestRunRejects(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte(`{"servers": 4, "sevrers": 5}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		args []string
		code int
		diag string
	}{
		{[]string{bad}, 1, "sevrers"},
		{[]string{filepath.Join(testdata, "matrix.json")}, 1, "scenario run"},
		{[]string{"no-such-file.json"}, 1, "no-such-file.json"},
		{nil, 2, "usage"},
		{[]string{"-config", bad}, 2, "usage"},
	} {
		code, out, errw := cli(t, c.args...)
		if code != c.code {
			t.Errorf("args %v: exit %d, want %d", c.args, code, c.code)
		}
		if !strings.Contains(errw, c.diag) {
			t.Errorf("args %v: diagnostic %q does not mention %q", c.args, errw, c.diag)
		}
		if out != "" {
			t.Errorf("args %v: rejected run printed a report:\n%s", c.args, out)
		}
	}
}
