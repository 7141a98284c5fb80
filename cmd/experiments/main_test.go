package main

import (
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestRunEveryExperimentQuick sweeps all paper experiments in -quick
// mode: each must exit 0 and print its banner. This is the smoke net
// for the experiment runners themselves — the numeric results are
// pinned by the golden tests in internal/experiments.
func TestRunEveryExperimentQuick(t *testing.T) {
	for _, exp := range []string{"table1", "fig4", "fig5", "fig6", "fig8",
		"fig9", "fig11", "fig12", "fig13", "hyperscale"} {
		exp := exp
		t.Run(exp, func(t *testing.T) {
			t.Parallel()
			var stdout, stderr strings.Builder
			code := run([]string{"-exp", exp, "-quick"}, &stdout, &stderr)
			if code != 0 {
				t.Fatalf("exit %d, stderr: %s", code, stderr.String())
			}
			if !strings.Contains(stdout.String(), "==== "+exp+" ====") {
				t.Fatalf("banner missing:\n%s", stdout.String())
			}
		})
	}
}

func TestRunSingleExperimentQuick(t *testing.T) {
	var stdout, stderr strings.Builder
	code := run([]string{"-exp", "table1", "-quick"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	got := stdout.String()
	if !strings.Contains(got, "==== table1 ====") || !strings.Contains(got, "capability") {
		t.Fatalf("table1 output missing:\n%s", got)
	}
}

// The hyperscale row in quick mode: the K=16 farm builds and runs, and
// the summary carries a live dispatch rate and a measured peak RSS.
func TestRunHyperscaleQuick(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"-exp", "hyperscale", "-quick"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	got := stdout.String()
	if !strings.Contains(got, "1024 servers in 128 racks") {
		t.Fatalf("quick farm size missing:\n%s", got)
	}
	m := regexp.MustCompile(`(\d+) events/s .* peak RSS (\d+) MiB`).FindStringSubmatch(got)
	if m == nil {
		t.Fatalf("events/s or peak RSS missing:\n%s", got)
	}
	for i, what := range []string{"events/s", "peak RSS"} {
		if v, err := strconv.ParseFloat(m[i+1], 64); err != nil || v <= 0 {
			t.Errorf("%s = %q, want > 0", what, m[i+1])
		}
	}
}

func TestRunWritesTSV(t *testing.T) {
	dir := t.TempDir()
	var stdout, stderr strings.Builder
	code := run([]string{"-exp", "fig5", "-quick", "-workers", "2", "-out", dir}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	data, err := os.ReadFile(filepath.Join(dir, "fig5.tsv"))
	if err != nil {
		t.Fatalf("fig5.tsv not written: %v", err)
	}
	if !strings.Contains(string(data), "\t") {
		t.Fatalf("fig5.tsv is not TSV:\n%s", data)
	}
	if !strings.Contains(stdout.String(), "optimal tau") {
		t.Fatalf("fig5 summary missing:\n%s", stdout.String())
	}
}

func TestRunRejectsUnknownExperiment(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"-exp", "fig99"}, &stdout, &stderr); code != 2 {
		t.Fatalf("unknown experiment: exit %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "unknown experiment") {
		t.Fatalf("stderr: %s", stderr.String())
	}
	if code := run([]string{"-badflag"}, &stdout, &stderr); code != 2 {
		t.Fatalf("bad flag: exit %d, want 2", code)
	}
}
