package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// env is what a workload episode receives: the seed its inputs derive
// from, the size, and the tracer (nil in untraced episodes, where no
// hook is wrapped).
type env struct {
	seed  int64
	small bool
	tr    *tracer
}

// benchWorkload is one named input set. episode builds the system,
// measures one window and checks the outputs; simulated workloads run
// on the simulator's engine, whose self time is what remains of the
// window once the traced layers are taken out.
type benchWorkload struct {
	episode   func(*env) (*episode, error)
	simulated bool
}

var workloads = map[string]benchWorkload{
	"pair-probe":     {pairProbe, true},
	"mesh-flows":     {meshFlows, true},
	"loopback-flood": {loopbackFlood, false},
}

// episode is one set-up plus one measured window.
type episode struct {
	setup  time.Duration
	window time.Duration
	// user and sys are the process's CPU time over the window.
	user, sys time.Duration
	// frames counts Tango frames decapsulated at receiving switches
	// during the window.
	frames uint64
	// sent counts the frames the workload offered; failed those the
	// program mishandled (see README.md, "Correctness").
	sent, failed uint64
	// heapLive is the larger live heap of the two measured after a forced
	// collection at the end of set-up and at the end of the window.
	heapLive uint64
	// allocBytes and gcCycles are the Go runtime's counts over the window.
	allocBytes, gcCycles uint64
	// samples are the window's throughput samples.
	samples []sample
	// instance numbers the workload instance the episode ran (see
	// instanceSeed).
	instance int
	// digest hashes the simulated statistics ("" where the workload is
	// not deterministic).
	digest string
	// errs lists failed checks.
	errs []string
	// layer holds per-layer values of this episode, by metric name.
	layer map[string]float64
}

func newEpisode() *episode { return &episode{layer: map[string]float64{}} }

func (e *episode) failf(format string, args ...any) {
	e.errs = append(e.errs, fmt.Sprintf(format, args...))
}

func (e *episode) pktsPerSec() float64 {
	if e.window <= 0 {
		return 0
	}
	return float64(e.frames) / e.window.Seconds()
}

func (e *episode) cpuNsPerPkt() float64 {
	if e.frames == 0 {
		return 0
	}
	return float64(e.user+e.sys) / float64(e.frames)
}

// e2eMetric is an end-to-end metric: what a user of the system sees.
type e2eMetric struct {
	name, unit string
	of         func([]*episode) float64
}

// endToEnd is printed by untraced runs, in BENCHMARK.json's order.
var endToEnd = []e2eMetric{
	{"setup_s", "s", func(eps []*episode) float64 {
		return medianOf(eps, func(e *episode) float64 { return e.setup.Seconds() })
	}},
	{"pkts_per_s", "1/s", func(eps []*episode) float64 {
		return medianOfSamples(eps, sample.pktsPerSec)
	}},
	{"cpu_ns_per_pkt", "ns", func(eps []*episode) float64 {
		return medianOfSamples(eps, sample.cpuNsPerPkt)
	}},
	{"peak_heap_mb", "MB", func(eps []*episode) float64 {
		return medianOf(eps, func(e *episode) float64 { return float64(e.heapLive) / (1 << 20) })
	}},
}

// layerMetric is a per-layer metric printed by traced runs.
type layerMetric struct{ name, unit string }

// perLayerMetrics is printed by traced runs. A workload that bypasses a
// layer reports 0 for it. README.md maps each to the end-to-end metric
// and workload it should move.
var perLayerMetrics = []layerMetric{
	{"packet.verify_ns.64B", "ns"},
	{"packet.verify_ns.1400B", "ns"},
	{"packet.serialize_ns.1KiB", "ns"},
	{"dataplane.encap_ns.64B", "ns"},
	{"dataplane.encap_ns.1KiB", "ns"},
	{"dataplane.decap_ns.64B", "ns"},
	{"dataplane.decap_ns.1KiB", "ns"},
	{"dataplane.encapped", "count"},
	{"dataplane.decapped", "count"},
	{"dataplane.bad_packet", "count"},
	{"dataplane.no_tunnel", "count"},
	{"dataplane.reports_sent", "count"},
	{"control.ingest_ns.p50", "ns"},
	{"control.ingest_ns.p99", "ns"},
	{"control.ingest_calls", "count"},
	{"control.monitor_ingest_ns", "ns"},
	{"control.decide_ns", "ns"},
	{"control.decide_calls", "count"},
	{"control.switches", "count"},
	{"workload.sink_ns", "ns"},
	{"workload.emit_ns", "ns"},
	{"workload.flow_delivered", "count"},
	{"workload.flow_gaps", "count"},
	{"workload.flow_dups", "count"},
	{"workload.flow_refused", "count"},
	{"workload.bytes_per_flow", "B"},
	{"workload.loss_ratio", "ratio"},
	{"sim.events_fired", "count"},
	{"sim.events_cancelled", "count"},
	{"sim.ns_per_event", "ns"},
	{"sim.sched_fire_ns", "ns"},
	{"sim.epochs", "count"},
	{"sim.cross_msgs", "count"},
	{"sim.epoch_ms.p50", "ms"},
	{"sim.epoch_ms.p99", "ms"},
	{"simnet.line_tx", "count"},
	{"simnet.line_lost", "count"},
	{"simnet.line_dropped", "count"},
	{"simnet.hops_per_pkt", "hops"},
	{"simnet.link_traverse_ns", "ns"},
	{"simnet.fib_lookup_ns", "ns"},
	{"topo.build_s", "s"},
	{"bgp.converge_s", "s"},
	{"bgp.best_changes", "count"},
	{"discovery.s", "s"},
	{"discovery.virtual_s", "s"},
	{"discovery.paths", "count"},
	{"chaos.check_ns", "ns"},
	{"chaos.checks", "count"},
	{"chaos.faults", "count"},
	{"chaos.violations", "count"},
	{"obs.counter_ns", "ns"},
	{"obs.histogram_ns", "ns"},
	{"udp.do_wait_ns", "ns"},
	{"udp.do_ns", "ns"},
	{"udp.tx_frames", "count"},
	{"udp.rx_frames", "count"},
	{"udp.write_err", "count"},
	{"udp.sys_ns_per_frame", "ns"},
	{"udp.user_ns_per_frame", "ns"},
	{"udp.latency_p50_us", "us"},
	{"udp.latency_p99_us", "us"},
	{"udp.latency_samples", "count"},
	{"te.solve_us", "us"},
	{"go.gc_cycles", "count"},
	{"go.alloc_bytes_per_pkt", "B"},
	{"self_ms.setup.topo", "ms"},
	{"self_ms.setup.bgp", "ms"},
	{"self_ms.setup.discovery", "ms"},
	{"self_ms.setup.wire", "ms"},
	{"self_ms.sim", "ms"},
	{"self_ms.dataplane", "ms"},
	{"self_ms.control", "ms"},
	{"self_ms.workload", "ms"},
	{"self_ms.chaos", "ms"},
	{"self_ms.udp", "ms"},
	{"self_ms.bench", "ms"},
	{"trace.overhead.pkts_per_s", "1/s"},
	{"trace.overhead.cpu_ns_per_pkt", "ns"},
	{"trace.spans", "count"},
}

// untracedLayer names the per-layer values taken from the untraced
// episodes of a traced run: the frame latency is a property of the
// workload, and tracing would only add its own cost to it.
var untracedLayer = map[string]bool{
	"udp.latency_p50_us":  true,
	"udp.latency_p99_us":  true,
	"udp.latency_samples": true,
}

// perLayer folds a traced run into per-layer values: the median of each
// value over the traced episodes, the call-cost micros, and the tracing
// overhead (traced minus untraced end-to-end medians).
func perLayer(plain, traced []*episode, micros []microResult, tr *tracer) map[string]float64 {
	out := map[string]float64{}
	keys := map[string]bool{}
	for _, e := range append(append([]*episode(nil), plain...), traced...) {
		for k := range e.layer {
			keys[k] = true
		}
	}
	for k := range keys {
		src := traced
		if untracedLayer[k] {
			src = plain
		}
		out[k] = medianOf(src, func(e *episode) float64 { return e.layer[k] })
	}
	for _, m := range micros {
		out[m.metric] = m.value
	}
	out["go.gc_cycles"] = medianOf(traced, func(e *episode) float64 { return float64(e.gcCycles) })
	out["go.alloc_bytes_per_pkt"] = medianOf(traced, func(e *episode) float64 {
		if e.frames == 0 {
			return 0
		}
		return float64(e.allocBytes) / float64(e.frames)
	})
	out["trace.overhead.pkts_per_s"] = medianOfSamples(traced, sample.pktsPerSec) - medianOfSamples(plain, sample.pktsPerSec)
	out["trace.overhead.cpu_ns_per_pkt"] = medianOfSamples(traced, sample.cpuNsPerPkt) - medianOfSamples(plain, sample.cpuNsPerPkt)
	out["trace.spans"] = float64(len(tr.spans))
	return out
}

// medianOf is the median of f over eps (0 for none).
func medianOf(eps []*episode, f func(*episode) float64) float64 {
	vs := make([]float64, 0, len(eps))
	for _, e := range eps {
		vs = append(vs, f(e))
	}
	return median(vs)
}

// medianOfSamples is the median of f over every throughput sample of eps.
func medianOfSamples(eps []*episode, f func(sample) float64) float64 {
	var vs []float64
	for _, e := range eps {
		for _, s := range e.samples {
			vs = append(vs, f(s))
		}
	}
	return median(vs)
}

func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile is the nearest-rank q-quantile of sorted (ascending) values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}
