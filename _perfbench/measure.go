package main

import (
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

// processCPU returns the process's user+system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rtSnap is one reading of the runtime counters the benchmark uses.
type rtSnap struct {
	allocs, allocBytes uint64
	gcCPU, busyCPU     float64
	gcCycles           uint64
	cpu                time.Duration
}

var rtNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/gc/mark/idle:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
}

func readRuntime() rtSnap {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return rtSnap{
		allocs:     s[0].Value.Uint64(),
		allocBytes: s[1].Value.Uint64(),
		// GC work done on otherwise idle processors displaces nothing,
		// so both sides leave idle time out.
		gcCPU:    s[2].Value.Float64() - s[3].Value.Float64(),
		busyCPU:  s[4].Value.Float64() - s[5].Value.Float64(),
		gcCycles: s[6].Value.Uint64(),
		cpu:      processCPU(),
	}
}

// liveHeap returns the heap bytes the last completed GC found live.
func liveHeap() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// heapWatch records the largest live heap any GC cycle finds while it
// is armed. A finalizer on a sentinel object runs once after every
// cycle, so the watch costs nothing between collections.
type heapWatch struct {
	peak atomic.Uint64
	stop atomic.Bool
}

type sentinel struct{ _ *int }

func watchHeap() *heapWatch {
	h := &heapWatch{}
	h.arm()
	return h
}

func (h *heapWatch) arm() {
	runtime.SetFinalizer(&sentinel{}, func(*sentinel) {
		if h.stop.Load() {
			return
		}
		v := liveHeap()
		for {
			p := h.peak.Load()
			if v <= p || h.peak.CompareAndSwap(p, v) {
				break
			}
		}
		h.arm()
	})
}

// done disarms the watch and returns the peak it saw (0: no cycle ran).
func (h *heapWatch) done() uint64 {
	h.stop.Store(true)
	return h.peak.Load()
}

// stealWatch measures the share of CPU time the hypervisor gave to
// other guests while the benchmark ran (the "steal" column of
// /proc/stat), for the record: a run on a contended host shows it.
type stealWatch struct{ steal, total float64 }

func readStat() (steal, total float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	for i := 1; i < len(f); i++ {
		v, _ := strconv.ParseFloat(f[i], 64)
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}

func watchSteal() *stealWatch {
	s, t := readStat()
	return &stealWatch{steal: s, total: t}
}

// done returns the steal share since watchSteal (-1 when unknown).
func (w *stealWatch) done() float64 {
	s, t := readStat()
	if t <= w.total {
		return -1
	}
	return (s - w.steal) / (t - w.total)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method).
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return xs[0], xs[0]
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(j int) float64 {
		m := float64(n + 1)
		pos := m * float64(j) / 4
		i := int(math.Floor(pos))
		frac := pos - float64(i)
		if i < 1 {
			return s[0]
		}
		if i >= n {
			return s[n-1]
		}
		return s[i-1] + (s[i]-s[i-1])*frac
	}
	return at(1), at(3)
}

// nearestRank returns the p-quantile of xs (0 < p ≤ 1) by the
// nearest-rank rule; xs is sorted in place.
func nearestRank(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(p*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}
