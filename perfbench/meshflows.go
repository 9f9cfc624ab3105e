package main

import (
	"fmt"
	"math"
	"strings"
	"time"

	"tango/internal/chaos"
	"tango/internal/control"
	"tango/internal/core"
	"tango/internal/obs"
	"tango/internal/sim"
	"tango/internal/topo"
	"tango/internal/workload"
)

// meshFlowsSize is the shape of the mesh-flows workload.
type meshFlowsSize struct {
	sites, flows, faults int
	window               time.Duration
}

var (
	meshFull  = meshFlowsSize{sites: 16, flows: 100_000, faults: 128, window: 5 * time.Second}
	meshSmall = meshFlowsSize{sites: 4, flows: 2_000, faults: 4, window: 2 * time.Second}
)

// meshWorkers is the sharded engine's worker count. It is fixed rather
// than taken from the machine so that runs on different boxes do the
// same work; results never depend on it.
const meshWorkers = 1

// meshTargetPPS is the aggregate flow emission rate the class cadence is
// stretched to, as in E13: concurrency stays at full scale, only the
// per-flow rate slows.
const meshTargetPPS = 50_000

// meshSlice is the virtual time one window slice advances: about a
// quarter second of host time, one throughput sample.
const meshSlice = 250 * time.Millisecond

// meshFlows is E13's shape at sandbox size: a 16-site wide mesh on the
// sharded engine, 100k standing flows of the VoIP/video/bulk mix, a
// chaos storm with conservation and buffer-balance checks every virtual
// second, and obs instruments on every switch, monitor, controller and
// flow table. Large frames, a large working set, coordinator epochs and
// a set-up dominated by BGP convergence and discovery.
func meshFlows(e *env) (*episode, error) {
	ep := newEpisode()
	tr := e.tr
	size := meshFull
	if e.small {
		size = meshSmall
	}
	streams := sim.NewStreams(e.seed)

	t0 := time.Now()
	setup := tr.begin("setup")
	sp := tr.begin("topo.build")
	tc := topo.WideMeshConfig(e.seed, size.sites)
	tc.Shards = meshWorkers
	s, err := topo.NewMeshScenario(tc)
	if err != nil {
		return nil, err
	}
	tr.end(sp)
	t1 := time.Now()
	sp = tr.begin("bgp.converge")
	s.Run(5 * time.Minute)
	tr.end(sp)
	t2 := time.Now()
	sp = tr.begin("discovery")
	w := s.B.W
	v0 := w.Now()
	m, err := core.MeshFromScenario(s, core.MeshConfig{
		ProbeInterval: 100 * time.Millisecond,
		MaxRounds:     16,
		DecideEvery:   time.Second,
		NewPolicy: func(site, peer string) control.Policy {
			return minOWD(tr, time.Second, 2*time.Second)
		},
	})
	if err != nil {
		return nil, err
	}
	m.Establish()
	if !m.RunUntilReady(4 * time.Hour) {
		return nil, fmt.Errorf("mesh establishment did not complete")
	}
	tr.end(sp)
	t3 := time.Now()

	sp = tr.begin("wire")
	eng := s.B.Eng()
	coord := eng.Coord()
	reg := obs.NewRegistry()
	journal := obs.NewJournal(4096)
	coord.AtBarrier(0, func(sim.Time) { journal.MergeShards() })
	m.Instrument(reg, journal)

	var members []*core.Site
	var labels []string
	for _, site := range s.SiteNames {
		for _, mb := range m.MembersOf(site) {
			members = append(members, mb)
			labels = append(labels, site+"->"+mb.Peer().Spec.Name)
		}
	}
	paths := 0
	for _, mb := range members {
		paths += len(mb.OutPaths)
		if tr != nil {
			traceIngest(mb.Switch, tr.hook("control.ingest"))
		}
	}

	// Stretch the class cadence so the population emits near the target
	// rate; draw each flow's class and start stagger from the seed.
	classes := workload.DefaultClasses()
	slowdown := time.Duration(math.Ceil(float64(size.flows) * 58 / meshTargetPPS))
	for c := range classes {
		classes[c].Interval *= slowdown
	}
	var heapBefore uint64
	if tr != nil {
		heapBefore = liveHeap()
	}
	endpoints := 2 * len(s.PairKeys)
	perEp := size.flows / endpoints
	tables := make(map[string]*workload.FlowTable, len(s.SiteNames))
	for _, site := range s.SiteNames {
		t := workload.NewFlowTable(m.MembersOf(site)[0].Eng(), classes, perEp*len(m.MembersOf(site)))
		t.Instrument(reg, site)
		tables[site] = t
	}
	flowRNG := streams.Stream("perfbench/mesh-flows/flows")
	wire := func(site, peer string) {
		sender, recv := m.Member(site, peer), m.Member(peer, site)
		src, _ := sender.HostAddr()
		dst, _ := recv.HostAddr()
		t := tables[site]
		id := t.AddEndpoint(sender.Switch, src, dst)
		sink := t.SinkFor(recv.Eng())
		if tr != nil {
			sink = tracedSink(sink, tr.hook("workload.sink"))
		}
		recv.AddSink(sink)
		for k := 0; k < perEp; k++ {
			c := workload.Class(flowRNG.Intn(workload.NumClasses))
			stagger := time.Duration(flowRNG.Int63n(int64(classes[c].Interval)))
			if t.Start(id, c, 1<<31, stagger) < 0 {
				ep.failf("standing flow refused below capacity")
			}
		}
	}
	for _, pk := range s.PairKeys {
		wire(pk[0], pk[1])
		wire(pk[1], pk[0])
	}
	standing := perEp * endpoints
	if tr != nil {
		ep.layer["workload.bytes_per_flow"] = (float64(liveHeap()) - float64(heapBefore)) / float64(standing)
	}

	ch := chaos.New(eng)
	for _, site := range s.SiteNames {
		for prov, line := range s.Trunk[site] {
			ch.AddLine("trunk/"+site+"/"+prov, line)
		}
	}
	ch.Instrument(reg, journal)
	for _, inv := range []chaos.Invariant{chaos.Conservation("wide", w), chaos.BufferBalance("wide", w)} {
		if tr != nil {
			inv = tracedInvariant{inv, tr.hook("chaos.check")}
		}
		ch.Watch(inv)
	}
	ch.StartChecks(time.Second)
	start := w.Now()
	labelsStorm := ch.ScheduleStorm(streams.Stream("perfbench/mesh-flows/storm"), chaos.StormConfig{
		Faults: size.faults,
		Start:  start + 500*time.Millisecond,
		Window: size.window - time.Second,
		MaxFor: 3 * time.Second,
	})
	for _, site := range s.SiteNames {
		t := tables[site]
		t.Eng().Schedule(size.window, t.Stop)
	}
	coord.EnterParallel()
	var lastBarrier int64
	if tr != nil {
		coord.AtBarrier(0, func(sim.Time) {
			now := tr.now()
			tr.closed("epoch", lastBarrier, now)
			lastBarrier = now
		})
	}
	tr.end(sp)
	ep.setup = time.Since(t0)
	tr.end(setup)
	l := ep.layer
	l["topo.build_s"] = t1.Sub(t0).Seconds()
	l["bgp.converge_s"] = t2.Sub(t1).Seconds()
	l["discovery.s"] = t3.Sub(t2).Seconds()
	l["discovery.virtual_s"] = (start - v0).Seconds()
	l["discovery.paths"] = float64(paths)
	l["bgp.best_changes"] = float64(bestChanges(s))
	noteHeap(ep)

	active := 0
	for _, t := range tables {
		active += t.Active()
	}
	if active != standing {
		ep.failf("%d flows active, want %d standing", active, standing)
	}

	encap0, decap0 := dataplaneObsSums(reg)
	before := snapshotSim(w, members)
	win := tr.begin("window")
	meter := startMeter(func() uint64 { return sumSwitches(members).decapped })
	for at := start + meshSlice; at <= start+size.window; at += meshSlice {
		sl := tr.begin("slice")
		if tr != nil {
			lastBarrier = tr.now()
		}
		w.Run(at)
		tr.end(sl)
		meter.lap()
	}
	meter.stop(ep)
	tr.end(win)
	after := snapshotSim(w, members)
	encap1, decap1 := dataplaneObsSums(reg)
	recordWindow(ep, before, after)
	l["obs.encap_ns_sum"] = encap1 - encap0
	l["obs.decap_ns_sum"] = decap1 - decap0

	// Drain: flows stopped at the window's end; let in-flight frames and
	// the storm's reverts land, then check the books once more.
	sp = tr.begin("drain")
	w.Run(w.Now() + 2*time.Second)
	ch.StopChecks()
	tr.end(sp)
	noteHeap(ep)
	ch.CheckNow()
	checkNetwork(ep, w, "wide")

	var flows [workload.NumClasses]workload.FlowClassStats
	var tot workload.FlowClassStats
	for _, site := range s.SiteNames {
		for c := range flows {
			addFlowStats(&flows[c], tables[site].ClassStats(workload.Class(c)))
		}
		addFlowStats(&tot, tables[site].Totals())
	}
	for c, cs := range flows {
		if cs.Delivered > cs.Sent {
			ep.failf("%v flows delivered %d > sent %d", workload.Class(c), cs.Delivered, cs.Sent)
		}
	}
	if tot.Delivered == 0 {
		ep.failf("no flow packet delivered")
	}
	vs := ch.Violations()
	if len(vs) > 0 {
		ep.failf("%d chaos invariant violations, first %s", len(vs), vs[0])
	}
	if len(labelsStorm) != size.faults {
		ep.failf("storm drew %d faults, want %d", len(labelsStorm), size.faults)
	}
	l["workload.flow_delivered"] = float64(tot.Delivered)
	l["workload.flow_gaps"] = float64(tot.Gaps)
	l["workload.flow_dups"] = float64(tot.Dups)
	l["workload.flow_refused"] = float64(tot.Refused)
	if tot.Sent > 0 {
		l["workload.loss_ratio"] = 1 - float64(tot.Delivered)/float64(tot.Sent)
	}
	l["chaos.faults"] = float64(len(labelsStorm))
	l["chaos.violations"] = float64(len(vs))

	d := newDigester()
	digestSites(d, members, labels)
	digestLines(d, w)
	for c, cs := range flows {
		d.add("flows "+workload.Class(c).String(), cs.Sent, cs.Delivered, cs.Dups, cs.Gaps, cs.Refused)
	}
	d.add("chaos", ch.LogString(), len(vs))
	d.add("journal", journal.Total())
	ep.digest = d.sum()
	return ep, nil
}

func addFlowStats(a *workload.FlowClassStats, b workload.FlowClassStats) {
	a.Sent += b.Sent
	a.Delivered += b.Delivered
	a.Dups += b.Dups
	a.Gaps += b.Gaps
	a.Refused += b.Refused
}

// tracedSink times a flow table's receive-side accounting.
func tracedSink(next func([]byte) bool, h *obs.Histogram) func([]byte) bool {
	return func(inner []byte) bool {
		t0 := time.Now()
		ok := next(inner)
		observe(h, t0)
		return ok
	}
}

// dataplaneObsSums totals the switches' own encap and decap latency
// histograms (nanoseconds) across every registered site.
func dataplaneObsSums(reg *obs.Registry) (encap, decap float64) {
	for k, v := range reg.Snapshot() {
		switch {
		case strings.HasPrefix(k, "tango_dataplane_encap_ns_sum"):
			encap += v
		case strings.HasPrefix(k, "tango_dataplane_decap_ns_sum"):
			decap += v
		}
	}
	return encap, decap
}
