package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// selfCPU is the harness process's own user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// clockTick is USER_HZ, the unit of the CPU fields in /proc/<pid>/stat.
// It is 100 on every Linux ABI Go supports.
const clockTick = 10 * time.Millisecond

// procCPU reads user+system CPU time of another process from
// /proc/<pid>/stat (fields 14 and 15, counted after the parenthesised
// command name, which may itself contain spaces).
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("proc stat of %d: no command field", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat of %d: %d fields", pid, len(f))
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("proc stat of %d: bad cpu fields %q %q", pid, f[11], f[12])
	}
	return time.Duration(utime+stime) * clockTick, nil
}

// peakRSSMiB reads VmHWM (peak resident set) of a process in MiB.
func peakRSSMiB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				kb, err := strconv.ParseFloat(f[0], 64)
				if err != nil {
					return 0, err
				}
				return kb / 1024, nil
			}
		}
	}
	return 0, fmt.Errorf("proc status of %d: no VmHWM", pid)
}

// heapCounters are the allocation totals of the system under test,
// and the bytes its heap holds at the time of reading.
type heapCounters struct {
	mallocs, bytes, pauseNs, inUse uint64
}

func selfHeap() heapCounters {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return heapCounters{m.Mallocs, m.TotalAlloc, m.PauseTotalNs, m.HeapAlloc}
}
