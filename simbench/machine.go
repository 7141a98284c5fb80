package main

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// fingerprint describes the host the numbers were measured on: CPU
// model, usable CPUs, GOMAXPROCS, Go version and, where the kernel
// exposes it, the CPU frequency governor.
func fingerprint() string {
	cpu := "unknown"
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	governor := "unreadable"
	if b, err := os.ReadFile("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor"); err == nil {
		governor = strings.TrimSpace(string(b))
	}
	return fmt.Sprintf("machine: cpu=%q nproc=%d gomaxprocs=%d go=%s governor=%s",
		cpu, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), governor)
}

// peakRSSMiB reports the process's peak resident set (VmHWM) in MiB.
func peakRSSMiB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 2 && f[1] == "kB" {
				kb, err := strconv.ParseFloat(f[0], 64)
				if err != nil {
					return 0, fmt.Errorf("peak RSS: %w", err)
				}
				return kb / 1024, nil
			}
		}
	}
	return 0, errors.New("peak RSS: no VmHWM line in /proc/self/status")
}
