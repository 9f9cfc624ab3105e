package main

import (
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"
)

// sampleEvery is the shortest stretch of a window that becomes one
// throughput sample. A run's pkts_per_s and cpu_ns_per_pkt are medians
// over all its samples, so a short stall of the host moves a few samples
// rather than a whole episode.
const sampleEvery = 250 * time.Millisecond

// sample is one stretch of a measured window.
type sample struct {
	wall, cpu time.Duration
	frames    uint64
}

func (s sample) pktsPerSec() float64 { return float64(s.frames) / s.wall.Seconds() }

func (s sample) cpuNsPerPkt() float64 { return float64(s.cpu) / float64(s.frames) }

// meter measures one window: wall time, the process's user and system
// CPU time and the Go runtime's allocation and collection counts over
// the whole window, and throughput samples along it.
type meter struct {
	frames func() uint64
	t0     time.Time
	ru     syscall.Rusage
	alloc  uint64
	gc     uint64

	lapAt     time.Time
	lapCPU    time.Duration
	lapFrames uint64
	samples   []sample
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

func readRuntime() (alloc, gc uint64) {
	metrics.Read(runtimeSamples)
	return runtimeSamples[0].Value.Uint64(), runtimeSamples[1].Value.Uint64()
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	// Getrusage on the calling process cannot fail.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

func cpuTime(ru syscall.Rusage) time.Duration {
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// startMeter opens a window; frames reports the frames decapsulated so
// far and is read at every lap.
func startMeter(frames func() uint64) *meter {
	m := &meter{frames: frames}
	m.alloc, m.gc = readRuntime()
	m.ru = rusage()
	m.t0 = time.Now()
	m.lapAt, m.lapCPU, m.lapFrames = m.t0, cpuTime(m.ru), frames()
	return m
}

// lap closes a throughput sample if at least sampleEvery has passed.
// Workloads call it at their slice boundaries.
func (m *meter) lap() {
	if now := time.Now(); now.Sub(m.lapAt) >= sampleEvery {
		m.close(now)
	}
}

func (m *meter) close(now time.Time) {
	cpu, frames := cpuTime(rusage()), m.frames()
	if frames > m.lapFrames {
		m.samples = append(m.samples, sample{wall: now.Sub(m.lapAt), cpu: cpu - m.lapCPU, frames: frames - m.lapFrames})
	}
	m.lapAt, m.lapCPU, m.lapFrames = now, cpu, frames
}

// stop closes the window and records it in ep; a last stretch shorter
// than half a sample is dropped from the samples.
func (m *meter) stop(ep *episode) {
	now := time.Now()
	if now.Sub(m.lapAt) >= sampleEvery/2 || len(m.samples) == 0 {
		m.close(now)
	}
	ep.window = now.Sub(m.t0)
	ru := rusage()
	ep.user = time.Duration(ru.Utime.Nano() - m.ru.Utime.Nano())
	ep.sys = time.Duration(ru.Stime.Nano() - m.ru.Stime.Nano())
	alloc, gc := readRuntime()
	ep.allocBytes = alloc - m.alloc
	ep.gcCycles = gc - m.gc
	ep.samples = m.samples
}

// noteHeap collects garbage and raises ep.heapLive to the live heap if
// it is larger. Called between set-up and window and after the window,
// outside both timed spans.
func noteHeap(ep *episode) {
	ep.heapLive = max(ep.heapLive, liveHeap())
}

// liveHeap returns the heap bytes still reachable after a collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
