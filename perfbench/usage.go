package main

import (
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"
)

// usage is a point-in-time reading of the process's resource counters.
type usage struct {
	at      time.Time
	cpu     time.Duration // user + system CPU of the whole process
	alloc   uint64        // cumulative heap bytes allocated
	mallocs uint64        // cumulative heap objects allocated
	gcCPU   float64       // runtime estimate of GC CPU seconds
	busyCPU float64       // runtime estimate of non-idle CPU seconds
}

var cpuMetrics = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/cpu/classes/idle:cpu-seconds"},
}

func readUsage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	metrics.Read(cpuMetrics)
	return usage{
		at:      time.Now(),
		cpu:     processCPU(),
		alloc:   ms.TotalAlloc,
		mallocs: ms.Mallocs,
		gcCPU:   cpuMetrics[0].Value.Float64(),
		busyCPU: cpuMetrics[1].Value.Float64() - cpuMetrics[2].Value.Float64(),
	}
}

// delta is the resource use between two readings.
type delta struct {
	wall, cpu      time.Duration
	alloc, mallocs uint64
	gcFrac         float64 // GC share of the runtime's busy CPU
}

func (u usage) since() delta {
	now := readUsage()
	d := delta{
		wall:    now.at.Sub(u.at),
		cpu:     now.cpu - u.cpu,
		alloc:   now.alloc - u.alloc,
		mallocs: now.mallocs - u.mallocs,
	}
	if busy := now.busyCPU - u.busyCPU; busy > 0 {
		d.gcFrac = (now.gcCPU - u.gcCPU) / busy
	}
	return d
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set so far, in MB (Linux
// reports ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6
}

// memSampler tracks the peak of the memory the Go runtime holds from the
// OS (everything it mapped, minus heap it returned), sampled every
// millisecond while a batch job runs.
type memSampler struct {
	stop chan struct{}
	done chan float64
}

var memMetrics = []metrics.Sample{
	{Name: "/memory/classes/total:bytes"},
	{Name: "/memory/classes/heap/released:bytes"},
}

func heldBytes(s []metrics.Sample) float64 {
	metrics.Read(s)
	return float64(s[0].Value.Uint64() - s[1].Value.Uint64())
}

func startMemSampler() *memSampler {
	r := &memSampler{stop: make(chan struct{}), done: make(chan float64, 1)}
	go func() {
		s := make([]metrics.Sample, len(memMetrics))
		copy(s, memMetrics)
		peak := heldBytes(s)
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-r.stop:
				r.done <- max(peak, heldBytes(s))
				return
			case <-t.C:
				peak = max(peak, heldBytes(s))
			}
		}
	}()
	return r
}

// peakMB stops the sampler and returns the peak it saw, in MB.
func (r *memSampler) peakMB() float64 {
	close(r.stop)
	return <-r.done / 1e6
}
