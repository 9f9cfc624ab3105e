package perf

import "testing"

// The zero-allocation assertions are the teeth of the perf-regression
// harness: they run the micro-benchmarks through testing.Benchmark and
// hard-fail if the steady-state fast path allocates at all, so an
// accidental per-packet allocation breaks `go test ./...` rather than
// silently eroding throughput.

func assertZeroAlloc(t *testing.T, name string, fn func(*testing.B)) {
	t.Helper()
	if testing.Short() {
		t.Skip("skipping alloc regression check in -short mode")
	}
	res := testing.Benchmark(fn)
	if a := res.AllocsPerOp(); a != 0 {
		t.Fatalf("%s allocates %d times per op (%d B/op), want 0 — the packet fast path has regressed",
			name, a, res.AllocedBytesPerOp())
	}
}

func TestEncapZeroAlloc(t *testing.T) { assertZeroAlloc(t, "BenchEncap", BenchEncap) }
func TestDecapZeroAlloc(t *testing.T) { assertZeroAlloc(t, "BenchDecap", BenchDecap) }
func TestChecksumZeroAlloc(t *testing.T) {
	assertZeroAlloc(t, "BenchChecksum", BenchChecksum)
}
func TestLinkTraverseZeroAlloc(t *testing.T) {
	assertZeroAlloc(t, "BenchLinkTraverse", BenchLinkTraverse)
}

// The wheel's schedule/fire and schedule/cancel loops must also be
// allocation-free in steady state: events come from the engine freelist
// and lazy cancellation returns them there in bulk, so a 10k-pending
// backlog costs no per-op heap traffic.

func TestSchedFireZeroAlloc(t *testing.T) { assertZeroAlloc(t, "BenchSchedFire", BenchSchedFire) }
func TestCancelZeroAlloc(t *testing.T)    { assertZeroAlloc(t, "BenchCancel", BenchCancel) }

// A coordinator barrier stages, sorts and drains cross-partition events
// every epoch, so it gets the same teeth: outboxes and the drain scratch
// are reused, and the sort must not allocate a swapper or closure.

func TestCrossDrainZeroAlloc(t *testing.T) { assertZeroAlloc(t, "BenchCrossDrain", BenchCrossDrain) }

// The telemetry instruments ride the same fast path (every encap bumps
// counters and observes a latency histogram), so they get the same
// teeth: a registered instrument's hot ops must never allocate.

func TestObsCounterZeroAlloc(t *testing.T) {
	assertZeroAlloc(t, "BenchObsCounter", BenchObsCounter)
}
func TestObsHistogramZeroAlloc(t *testing.T) {
	assertZeroAlloc(t, "BenchObsHistogram", BenchObsHistogram)
}

// The flyweight flow table carries the workload at edge scale, so its
// steady-state paths — batched emit through the wheel and the full
// arrive/emit/deliver/depart lifecycle — get the same teeth as the
// packet path.

func TestFlowEmitZeroAlloc(t *testing.T) { assertZeroAlloc(t, "BenchFlowEmit", BenchFlowEmit) }
func TestFlowArriveDepartZeroAlloc(t *testing.T) {
	assertZeroAlloc(t, "BenchFlowArriveDepart", BenchFlowArriveDepart)
}

// The TE optimizer's hot ops get the same teeth: an incremental move
// evaluation (ApplyMove/MaxUtil/UndoMove) and a full steady-state
// re-solve must both run allocation-free, or the control-plane cadence
// starts generating garbage proportional to the mesh size.

func TestTEMoveEvalZeroAlloc(t *testing.T) {
	assertZeroAlloc(t, "BenchTEMoveEval", BenchTEMoveEval)
}
func TestSolverConvergeZeroAlloc(t *testing.T) {
	assertZeroAlloc(t, "BenchSolverConverge", BenchSolverConverge)
}

// TestFlowMemoryPerFlow10x pins the flyweight claim: retained heap per
// concurrent flow must be at least 10x smaller than the per-AppGen
// object model it replaces.
func TestFlowMemoryPerFlow10x(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping memory measurement in -short mode")
	}
	table, appgen := FlowMemoryPerFlow()
	t.Logf("bytes per flow: flow table %.1f, per-AppGen baseline %.1f (%.1fx)",
		table, appgen, appgen/table)
	if table <= 0 || appgen <= 0 {
		t.Fatalf("degenerate measurement: table %.1f, appgen %.1f", table, appgen)
	}
	if appgen < 10*table {
		t.Fatalf("memory per flow %.1fB vs baseline %.1fB: reduction %.1fx < 10x",
			table, appgen, appgen/table)
	}
}

// Wrappers so `go test -bench` in this package reports the same numbers
// the assertions check.

func BenchmarkEncap(b *testing.B)         { BenchEncap(b) }
func BenchmarkDecap(b *testing.B)         { BenchDecap(b) }
func BenchmarkChecksum(b *testing.B)      { BenchChecksum(b) }
func BenchmarkLinkTraverse(b *testing.B)  { BenchLinkTraverse(b) }
func BenchmarkSchedFire(b *testing.B)     { BenchSchedFire(b) }
func BenchmarkSchedFireHeap(b *testing.B) { BenchSchedFireHeap(b) }
func BenchmarkCancel(b *testing.B)        { BenchCancel(b) }
func BenchmarkCancelHeap(b *testing.B)    { BenchCancelHeap(b) }
func BenchmarkCrossDrain(b *testing.B)    { BenchCrossDrain(b) }
func BenchmarkObsCounter(b *testing.B)    { BenchObsCounter(b) }
func BenchmarkObsHistogram(b *testing.B)  { BenchObsHistogram(b) }
func BenchmarkFlowEmit(b *testing.B)      { BenchFlowEmit(b) }
func BenchmarkFlowArriveDepart(b *testing.B) {
	BenchFlowArriveDepart(b)
}
func BenchmarkTEMoveEval(b *testing.B)     { BenchTEMoveEval(b) }
func BenchmarkSolverConverge(b *testing.B) { BenchSolverConverge(b) }
