package main

import (
	"os"
	"strconv"
	"strings"
	"time"
)

// The sandbox shares its host. Most of the time that costs a few per cent
// either way, but now and then, for minutes, the host runs something else on
// the sandbox's CPUs a quarter to half of the time; every latency then reads
// 1.5-2 x, and four such runs among ten wreck any spread. The kernel counts
// that time as "steal" in /proc/stat, and because the spinners keep every CPU
// wanting to run, the count misses none of it. So an epoch starts only when
// the host has let go (awaitQuiet), and an epoch during which the host took
// more than maxStealShare of the CPUs is measured again (run.execute). The
// evidence is the host's, not the measurement's: no epoch is dropped for what
// it measured.
const (
	maxStealShare = 0.02
	quietSample   = 250 * time.Millisecond
	// A run waits and repeats at most this much; after that it takes what it
	// gets, and says so.
	maxQuietWait = 45 * time.Second
	maxRedos     = 2
)

// cpuTicks is the first line of /proc/stat: the time all CPUs spent in any
// state, and the part of it the hypervisor gave to somebody else.
type cpuTicks struct{ total, steal uint64 }

func readCPUTicks() (t cpuTicks) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return t
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal guest guest_nice
	if len(f) < 9 || f[0] != "cpu" {
		return t
	}
	for i, s := range f[1:] {
		v, _ := strconv.ParseUint(s, 10, 64)
		if i < 8 { // guest time is already part of user time
			t.total += v
		}
		if i == 7 {
			t.steal = v
		}
	}
	return t
}

// stealShareSince is the share of all CPU time since then that was stolen.
func stealShareSince(then cpuTicks) float64 {
	now := readCPUTicks()
	if now.total <= then.total {
		return 0
	}
	return float64(now.steal-then.steal) / float64(now.total-then.total)
}

// awaitQuiet returns when a sample shows the host leaving the CPUs to the
// sandbox, or when budget is used up, and takes what it waited from budget.
func awaitQuiet(budget *time.Duration) {
	for *budget > 0 {
		then := readCPUTicks()
		time.Sleep(quietSample)
		if stealShareSince(then) <= maxStealShare {
			return
		}
		*budget -= quietSample
	}
}
