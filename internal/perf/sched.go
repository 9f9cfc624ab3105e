// Scheduler micro-benchmarks: schedule+fire and schedule+cancel against a
// standing backlog of ten thousand pending events, on both the timing
// wheel (sim.Engine) and the preserved binary-heap reference (sim.Ref).
// The backlog is the point: with n≈10k pending, the heap pays O(log n)
// sift-downs on every operation while the wheel's bucket arithmetic stays
// O(1), and BENCH.json carries the pair so the gap is visible on every
// commit. cmd/tango-bench enforces wheel ≤ 0.75× heap under -check.
package perf

import (
	"testing"
	"time"

	"tango/internal/sim"
)

// schedBacklog is the standing pending-event population the hot loop runs
// against. The delays are spread exponentially from one microsecond to
// hours so the backlog occupies wheel levels 0 through 5 rather than one
// convenient bucket — cursor advances during the measured loop cross real
// cascade boundaries.
const schedBacklog = 10240

func backlogDelay(i int) time.Duration {
	return time.Duration(int64(1)<<(10+uint(i)%30)) + time.Duration(i)
}

// BenchSchedFire measures one Schedule(10µs)+Step cycle on the wheel with
// schedBacklog events pending. The scheduled event is always the earliest,
// so each iteration measures exactly one placement and one fire (bucket
// insert, due-chain pop, freelist recycle); the backlog makes the wheel
// actually maintain its levels while the clock advances.
func BenchSchedFire(b *testing.B) {
	e := sim.NewEngine()
	noop := func() {}
	for i := 0; i < schedBacklog; i++ {
		e.Schedule(time.Hour+backlogDelay(i), noop)
	}
	for i := 0; i < warmupIters; i++ {
		e.Schedule(10*time.Microsecond, noop)
		e.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(10*time.Microsecond, noop)
		e.Step()
	}
	b.StopTimer()
	if got := e.Stats.Fired; got != uint64(b.N+warmupIters) {
		b.Fatalf("fired %d of %d", got, b.N+warmupIters)
	}
}

// BenchSchedFireHeap is BenchSchedFire on the binary-heap reference.
func BenchSchedFireHeap(b *testing.B) {
	r := sim.NewRef()
	noop := func() {}
	for i := 0; i < schedBacklog; i++ {
		r.Schedule(time.Hour+backlogDelay(i), noop)
	}
	for i := 0; i < warmupIters; i++ {
		r.Schedule(10*time.Microsecond, noop)
		r.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Schedule(10*time.Microsecond, noop)
		r.Step()
	}
	b.StopTimer()
}

// cancelWarmup pushes the cancel loop through several deferred-sweep
// cycles before measurement so the steady state — tombstones accumulating
// toward the sweep threshold, sweeps refilling the freelist — is what the
// timer sees, not the first sweep's cold start.
const cancelWarmup = 8192

// BenchCancel measures one Schedule+Cancel cycle on the wheel with
// schedBacklog live events pending. The cancel target's delay is drawn
// from the same exponential span as the backlog so it lands mid-structure
// on both schedulers (scheduling past the backlog's maximum would hand the
// heap a free O(1) last-leaf removal). Cancellation is lazy, so the
// measured cost is the O(1) tombstone write plus the amortized share of
// the deferred sweeps that reclaim tombstones in bulk.
func BenchCancel(b *testing.B) {
	e := sim.NewEngine()
	noop := func() {}
	for i := 0; i < schedBacklog; i++ {
		e.Schedule(time.Hour+backlogDelay(i), noop)
	}
	for i := 0; i < cancelWarmup; i++ {
		e.Cancel(e.Schedule(time.Hour+backlogDelay(i*31+7), noop))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Cancel(e.Schedule(time.Hour+backlogDelay(i*31+7), noop))
	}
	b.StopTimer()
	if got := e.Stats.Cancelled; got != uint64(b.N+cancelWarmup) {
		b.Fatalf("cancelled %d of %d", got, b.N+cancelWarmup)
	}
}

// BenchCancelHeap is BenchCancel on the binary-heap reference, where every
// cancel is an eager heap.Remove from the middle of a 10k-element heap.
func BenchCancelHeap(b *testing.B) {
	r := sim.NewRef()
	noop := func() {}
	for i := 0; i < schedBacklog; i++ {
		r.Schedule(time.Hour+backlogDelay(i), noop)
	}
	for i := 0; i < cancelWarmup; i++ {
		r.Cancel(r.Schedule(time.Hour+backlogDelay(i*31+7), noop))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Cancel(r.Schedule(time.Hour+backlogDelay(i*31+7), noop))
	}
	b.StopTimer()
}

// crossBatch is how many cross-partition events one BenchCrossDrain epoch
// stages at the barrier.
const crossBatch = 256

// crossSink counts the cross-partition events delivered to it.
type crossSink struct{ n int }

func (s *crossSink) OnSimEvent(any) { s.n++ }

// BenchCrossDrain measures one parallel epoch of a 2-partition
// coordinator: the source stages crossBatch cross-partition events one
// lookahead ahead, the barrier sorts and drains them onto the destination,
// and the destination fires the previous epoch's batch. The destination
// holds a timer a day away the whole time, as transit partitions hold
// far-off protocol timers. If the destination's Run let its wheel cursor
// run ahead to that timer, every drained event would land behind the
// cursor and be spliced into the due chain by a walk from its head,
// making the epoch quadratic in crossBatch.
func BenchCrossDrain(b *testing.B) {
	const la = time.Millisecond
	c := sim.NewCoordinator(2, la)
	src, dst := c.Part(0), c.Part(1)
	sink := &crossSink{}
	dst.Schedule(24*time.Hour, func() {})
	var tick func()
	tick = func() {
		at := src.Now() + la
		for i := 0; i < crossBatch; i++ {
			sim.CrossScheduleAt(src, dst, at+time.Duration(i)*(la/crossBatch), sink, nil)
		}
		src.Schedule(la, tick)
	}
	src.Schedule(la, tick)
	c.EnterParallel()
	for i := 0; i < warmupIters; i++ {
		c.Run(c.Now() + la)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Run(c.Now() + la)
	}
	b.StopTimer()
	// Epoch k fires the tick at k·la, whose batch spans [(k+1)·la,
	// (k+2)·la): after n epochs every batch but the last two has fired,
	// plus the first event of the second-to-last, which is due at n·la.
	if n, want := sink.n, crossBatch*(warmupIters+b.N-2)+1; n != want {
		b.Fatalf("destination fired %d cross events, want %d", n, want)
	}
}
