package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"tango/internal/obs"
)

// span is one traced interval at a layer boundary. Parent indexes the
// enclosing span in the run's span list (-1 at the top).
type span struct {
	Name   string `json:"name"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans around the calls the benchmark makes into each
// layer, and duration histograms for the per-packet hooks it wraps (one
// span per packet would cost more than the packet). Spans stay in memory
// until the run ends. A nil *tracer records nothing, so untraced
// episodes pay one nil check per boundary and wrap no hook.
//
// Spans are opened and closed on the goroutine driving the episode;
// hook histograms are safe from any goroutine.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int32
	// hooks holds the current episode's per-packet boundaries by name.
	hooks map[string]*obs.Histogram
	// first is the index of the current episode's first span.
	first int
}

func newTracer() *tracer { return &tracer{t0: time.Now(), hooks: map[string]*obs.Histogram{}} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span under the innermost open one and returns its id.
func (t *tracer) begin(name string) int32 {
	if t == nil {
		return -1
	}
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Parent: parent, Start: t.now()})
	t.open = append(t.open, id)
	return id
}

// end closes span id and any span still open inside it.
func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	now := t.now()
	t.spans[id].End = now
	for n := len(t.open); n > 0; n-- {
		top := t.open[n-1]
		t.open = t.open[:n-1]
		if top == id {
			break
		}
		t.spans[top].End = now
	}
}

// closed records an already-finished span under the innermost open one.
func (t *tracer) closed(name string, start, end int64) {
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent, Start: start, End: end})
}

// hook returns the current episode's histogram for a per-packet
// boundary, creating it on first use. Call while wiring, not per packet.
func (t *tracer) hook(name string) *obs.Histogram {
	h, ok := t.hooks[name]
	if !ok {
		h = &obs.Histogram{}
		t.hooks[name] = h
	}
	return h
}

// startEpisode forgets the previous episode's hook histograms.
func (t *tracer) startEpisode() {
	if t == nil {
		return
	}
	t.hooks = map[string]*obs.Histogram{}
	t.first = len(t.spans)
}

// observe records the time since t0 in h; wrappers call it on return.
func observe(h *obs.Histogram, t0 time.Time) { h.Observe(int64(time.Since(t0))) }

// hookSum is the total nanoseconds observed at a boundary this episode.
func (t *tracer) hookSum(name string) float64 {
	if h, ok := t.hooks[name]; ok {
		return float64(h.Sum())
	}
	return 0
}

func (t *tracer) hookMean(name string) float64 {
	h, ok := t.hooks[name]
	if !ok || h.Count() == 0 {
		return 0
	}
	return float64(h.Sum()) / float64(h.Count())
}

func (t *tracer) hookCount(name string) float64 {
	if h, ok := t.hooks[name]; ok {
		return float64(h.Count())
	}
	return 0
}

// spanTotal sums the durations of this episode's spans with the name.
func (t *tracer) spanTotal(name string) float64 {
	var d int64
	for _, s := range t.spans[t.first:] {
		if s.Name == name {
			d += s.End - s.Start
		}
	}
	return float64(d)
}

// spanDurations lists this episode's durations of spans with the name,
// sorted ascending, in nanoseconds.
func (t *tracer) spanDurations(name string) []float64 {
	var out []float64
	for _, s := range t.spans[t.first:] {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start))
		}
	}
	sort.Float64s(out)
	return out
}

// finishEpisode folds the episode's hooks and spans into per-layer
// values. Self time of a layer is the time inside its boundary minus
// the boundaries nested in it: the monitor and the flow sink run inside
// the receiver program, and the switch's encap runs inside the UDP
// backend's Do. Hook sums add up across goroutines, so on the sharded
// workload they are busy time summed over workers.
func (t *tracer) finishEpisode(ep *episode, simulated bool) {
	l := ep.layer
	l["control.ingest_ns.p50"] = float64(t.hook("control.ingest").Quantile(0.50))
	l["control.ingest_ns.p99"] = float64(t.hook("control.ingest").Quantile(0.99))
	l["control.ingest_calls"] = t.hookCount("control.ingest")
	l["control.decide_ns"] = t.hookMean("control.decide")
	l["control.decide_calls"] = t.hookCount("control.decide")
	l["workload.sink_ns"] = t.hookMean("workload.sink")
	l["chaos.check_ns"] = t.hookMean("chaos.check")
	l["chaos.checks"] = t.hookCount("chaos.check")
	l["udp.do_wait_ns"] = t.hookMean("udp.do_wait")
	l["udp.do_ns"] = t.hookMean("udp.do")
	if epochs := t.spanDurations("epoch"); len(epochs) > 0 {
		l["sim.epoch_ms.p50"] = quantile(epochs, 0.50) / 1e6
		l["sim.epoch_ms.p99"] = quantile(epochs, 0.99) / 1e6
	}

	ms := func(ns float64) float64 { return ns / 1e6 }
	control := t.hookSum("control.ingest") + t.hookSum("control.decide")
	sink := t.hookSum("workload.sink")
	chaos := t.hookSum("chaos.check")
	bench := t.hookSum("bench.verify")
	encap, decap := l["obs.encap_ns_sum"], l["obs.decap_ns_sum"]
	dataplane := 0.0
	if encap+decap > 0 {
		dataplane = max(0, encap+decap-t.hookSum("control.ingest")-sink-bench)
	}
	l["self_ms.setup.topo"] = ms(t.spanTotal("topo.build"))
	l["self_ms.setup.bgp"] = ms(t.spanTotal("bgp.converge"))
	l["self_ms.setup.discovery"] = ms(t.spanTotal("discovery"))
	l["self_ms.setup.wire"] = ms(t.spanTotal("wire"))
	l["self_ms.control"] = ms(control)
	l["self_ms.workload"] = ms(sink)
	l["self_ms.chaos"] = ms(chaos)
	l["self_ms.bench"] = ms(bench)
	l["self_ms.dataplane"] = ms(dataplane)
	if do := t.hookSum("udp.do"); do > 0 {
		l["self_ms.udp"] = ms(max(0, do-encap))
	}
	if simulated {
		// The engine, links and FIB have no boundary of their own: they
		// are what remains of the window once the wrapped layers are
		// taken out. Without switch instruments that includes the
		// dataplane.
		l["self_ms.sim"] = ms(max(0, t.spanTotal("window")-control-sink-chaos-dataplane))
	}
}

// write stores every span of the run, stamped with the machine
// fingerprint, as JSON under cfg.traceDir and returns the file's path.
func (t *tracer) write(cfg config, fp string) (string, error) {
	if err := os.MkdirAll(cfg.traceDir, 0o755); err != nil {
		return "", fmt.Errorf("trace: %w", err)
	}
	path := filepath.Join(cfg.traceDir, fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
	blob, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Machine  string `json:"machine"`
		Spans    []span `json:"spans"`
	}{cfg.workload, cfg.seed, fp, t.spans})
	if err != nil {
		return "", fmt.Errorf("trace: %w", err)
	}
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		return "", fmt.Errorf("trace: %w", err)
	}
	return path, nil
}
