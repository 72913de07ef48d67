package main

import (
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"
)

// Runtime counters the benchmark reads around its measured windows.
const (
	mAllocs = "/gc/heap/allocs:objects"
	mTiny   = "/gc/heap/tiny/allocs:objects"
	mLive   = "/gc/heap/live:bytes"
	mGCCPU  = "/cpu/classes/gc/total:cpu-seconds"
	mTotCPU = "/cpu/classes/total:cpu-seconds"
)

// runtimeSnap is a reading of the process-wide counters.
type runtimeSnap struct {
	allocs uint64
	// gcCPU and availCPU are the runtime's estimates: collector CPU, and
	// GOMAXPROCS integrated over wall time.
	gcCPU, availCPU float64
	// procCPU is user plus system CPU the kernel charged the process. Time
	// spent waiting on the disk, the network or a busy neighbour is not in
	// it (time the hypervisor steals while the process runs can be), which
	// keeps it far steadier than wall-clock rates on a shared machine.
	procCPU time.Duration
}

func readRuntime() runtimeSnap {
	s := []metrics.Sample{{Name: mAllocs}, {Name: mTiny}, {Name: mGCCPU}, {Name: mTotCPU}}
	metrics.Read(s)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // RUSAGE_SELF cannot fail
	return runtimeSnap{
		// Tiny allocations included, as runtime.MemStats.Mallocs counts
		// them (and BENCH_scale.json with it).
		allocs:   s[0].Value.Uint64() + s[1].Value.Uint64(),
		gcCPU:    s[2].Value.Float64(),
		availCPU: s[3].Value.Float64(),
		procCPU:  time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
	}
}

// gcShare is the collector's share of the available CPU between a and b.
func gcShare(a, b runtimeSnap) float64 {
	if d := b.availCPU - a.availCPU; d > 0 {
		return (b.gcCPU - a.gcCPU) / d
	}
	return 0
}

// liveHeapMB runs a full collection and returns the live heap in MiB. Taken
// at the end of a measured window, when caches and server state are at
// their fullest, it is the window's peak. (Sampling the live heap the
// collector records at its own cycles reads anywhere from half to all of
// that peak, depending on when the last cycle fell.)
func liveHeapMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: mLive}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}
