package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// startEnv describes the machine before the first run.
func startEnv() envInfo {
	env := envInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: benchProcs,
		GoVersion:  runtime.Version(),
		Commit:     gitCommit(),
		CPU:        cpuModel(),
		LoadStart:  loadAverage(),
	}
	env.Degraded = env.NProc < benchProcs
	env.Noisy = env.LoadStart > float64(env.NProc)
	return env
}

// finishEnv adds the load average after the last run.
func finishEnv(env envInfo) envInfo {
	env.LoadEnd = loadAverage()
	env.Noisy = env.Noisy || env.LoadEnd > float64(env.NProc)
	return env
}

func printEnv(w io.Writer, env envInfo) {
	fmt.Fprintf(w, "environment: nproc=%d GOMAXPROCS=%d %s commit=%s cpu=%q load1=%.2f", env.NProc, env.GOMAXPROCS, env.GoVersion, env.Commit, env.CPU, env.LoadStart)
	if env.LoadEnd > 0 {
		fmt.Fprintf(w, "..%.2f", env.LoadEnd)
	}
	if env.Noisy {
		fmt.Fprint(w, " NOISY (load average above nproc: timings are not to be trusted)")
	}
	if env.Degraded {
		fmt.Fprint(w, " DEGRADED (fewer than 2 cores: the two workers share one)")
	}
	fmt.Fprintln(w)
}

// gitCommit asks git; a checkout that is not a repository has no commit.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	s := bufio.NewScanner(f)
	for s.Scan() {
		if name, ok := strings.CutPrefix(s.Text(), "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return "unknown"
}

// loadAverage is the 1-minute load average, 0 where /proc has none.
func loadAverage() float64 {
	data, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(data))
	if len(fields) == 0 {
		return 0
	}
	v, _ := strconv.ParseFloat(fields[0], 64)
	return v
}
