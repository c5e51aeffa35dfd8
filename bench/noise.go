package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// usage is one reading of everything the benchmark charges to a measured
// window from outside the system: process CPU, heap allocations, and the
// host-wide CPU counters the steal guard needs.
type usage struct {
	at      time.Time
	cpu     time.Duration // process user+sys (getrusage)
	mallocs uint64        // runtime.MemStats.Mallocs
	steal   uint64        // /proc/stat "cpu" line, steal jiffies
	total   uint64        // /proc/stat "cpu" line, all jiffies
}

func readUsage() usage {
	var ru syscall.Rusage
	// Getrusage cannot fail for RUSAGE_SELF with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	u := usage{
		at:      time.Now(),
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: ms.Mallocs,
	}
	u.steal, u.total = readSteal("/proc/stat")
	return u
}

// readSteal returns the steal and total jiffies of the aggregate "cpu"
// line. A host without /proc/stat (or without the steal column) reads as
// zero steal: the guard then never fires, which is the right default off
// a hypervisor.
func readSteal(path string) (steal, total uint64) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, 0
	}
	return parseCPULine(sc.Text())
}

// parseCPULine parses "cpu user nice system idle iowait irq softirq steal
// guest guest_nice". Guest time is already folded into user by the kernel,
// so the total is the first eight columns.
func parseCPULine(line string) (steal, total uint64) {
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i := 1; i <= 8; i++ {
		v, err := strconv.ParseUint(f[i], 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}

// stealRatio is the share of host CPU time the hypervisor withheld between
// two readings.
func stealRatio(a, b usage) float64 {
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

// peakRSSMB reads VmHWM, the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// fsType names the filesystem holding path, printed beside the store
// timings because fsync cost is a property of it.
func fsType(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794C7630:
		return "overlayfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}

// sleepUntil blocks the calling goroutine's thread in the kernel until t.
// The Go runtime rounds sub-millisecond timer waits of an otherwise idle
// process up to a whole millisecond (its poller sleeps in milliseconds),
// which would make a 1 kHz schedule run half a tick late on average;
// nanosleep keeps the kernel's ~50 µs timer slack instead.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		// EINTR just means we look at the clock again.
		_ = syscall.Nanosleep(&ts, nil)
	}
}
