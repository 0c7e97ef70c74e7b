package main

// Host witnesses and process accounting: a fixed pure-Go reference loop
// (host.calib_ms), the steal share of CPU ticks from /proc/stat
// (host.steal_pct), process CPU time, peak RSS, and Go runtime counters.
// None of them depend on the program under test, so they tell a slower
// host apart from a slower program.

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// calibrate times a fixed integer workload (xorshift over a small table)
// three times and returns the median in milliseconds.
func calibrate() float64 {
	var table [4096]uint64
	times := make([]float64, 3)
	for r := range times {
		start := time.Now()
		x := uint64(88172645463325252)
		for i := 0; i < 1<<23; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			table[x&4095] += x
		}
		times[r] = float64(time.Since(start).Microseconds()) / 1000
		calibSink += table[int(x&4095)]
	}
	return median(times)
}

// calibSink keeps the calibration loop from being optimized away.
var calibSink uint64

// cpuTicks reads the aggregate "cpu" line of /proc/stat and returns the
// steal ticks and the total ticks. Both are zero where /proc is missing.
func cpuTicks() (steal, total uint64) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 9 || fields[0] != "cpu" {
			continue
		}
		for i, s := range fields[1:] {
			v, _ := strconv.ParseUint(s, 10, 64)
			// user nice system idle iowait irq softirq steal guest guest_nice:
			// guest time is already included in user and nice.
			if i < 8 {
				total += v
			}
			if i == 7 {
				steal = v
			}
		}
		break
	}
	return steal, total
}

// hostWitness brackets one run: the calibration loop and /proc/stat ticks
// at its start and end.
type hostWitness struct {
	calib              []float64
	steal0, total0     uint64
	stealPct, calibAvg float64
}

func startWitness() *hostWitness {
	w := &hostWitness{calib: []float64{calibrate()}}
	w.steal0, w.total0 = cpuTicks()
	return w
}

// finish takes the closing measurements.
func (w *hostWitness) finish() {
	steal, total := cpuTicks()
	w.calib = append(w.calib, calibrate())
	w.calibAvg = (w.calib[0] + w.calib[1]) / 2
	if total > w.total0 {
		w.stealPct = 100 * float64(steal-w.steal0) / float64(total-w.total0)
	}
}

// processCPU returns this process's user plus system CPU time in seconds.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

// processSys returns this process's system CPU time in seconds.
func processSys() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tvSeconds(ru.Stime)
}

// taskCPU returns the CPU seconds a process's live threads have run, from
// /proc/<pid>/task/*/schedstat (nanosecond resolution, unlike
// /proc/<pid>/stat). The daemon's threads live as long as it does.
func taskCPU(pid int) float64 {
	tasks, _ := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", pid))
	var ns float64
	for _, t := range tasks {
		data, err := os.ReadFile(t)
		if err != nil {
			continue // the thread exited
		}
		if f := strings.Fields(string(data)); len(f) > 0 {
			v, _ := strconv.ParseFloat(f[0], 64)
			ns += v
		}
	}
	return ns / 1e9
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// peakRSSMB reads VmHWM, the resident-set high-water mark, of a process
// ("self" or a pid) in MiB.
func peakRSSMB(pid string) float64 {
	data, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) > 0 {
				kb, _ := strconv.ParseFloat(fields[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// goRuntime samples the Go runtime counters the per-layer report uses.
type goRuntime struct{ allocBytes, gcCycles, gcCPU float64 }

var goRuntimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
}

func readGoRuntime() goRuntime {
	samples := make([]metrics.Sample, len(goRuntimeNames))
	for i, n := range goRuntimeNames {
		samples[i].Name = n
	}
	metrics.Read(samples)
	val := func(s metrics.Sample) float64 {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			return float64(s.Value.Uint64())
		case metrics.KindFloat64:
			return s.Value.Float64()
		}
		return 0
	}
	return goRuntime{val(samples[0]), val(samples[1]), val(samples[2])}
}

func (g goRuntime) sub(o goRuntime) goRuntime {
	return goRuntime{g.allocBytes - o.allocBytes, g.gcCycles - o.gcCycles, g.gcCPU - o.gcCPU}
}

func (g goRuntime) add(o goRuntime) goRuntime {
	return goRuntime{g.allocBytes + o.allocBytes, g.gcCycles + o.gcCycles, g.gcCPU + o.gcCPU}
}

// median returns the median of xs (0 for none); xs is not modified.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
