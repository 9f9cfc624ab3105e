package main

import (
	"fmt"
	"time"

	"tango/internal/chaos"
	"tango/internal/control"
	"tango/internal/core"
	"tango/internal/dataplane"
	"tango/internal/obs"
	"tango/internal/sim"
	"tango/internal/simnet"
	"tango/internal/topo"
)

// tracedPolicy times every decision of the policy it wraps.
type tracedPolicy struct {
	p control.Policy
	h *obs.Histogram
}

func (t tracedPolicy) Choose(now sim.Time, cur uint8, ests []control.PathEstimate) uint8 {
	t0 := time.Now()
	id := t.p.Choose(now, cur, ests)
	observe(t.h, t0)
	return id
}

// minOWD is the MinOWD policy tango.NewLab (2 s dwell) and E13 (1 s)
// install; traced runs wrap it.
func minOWD(tr *tracer, dwell, stale time.Duration) control.Policy {
	var p control.Policy = &control.MinOWD{HysteresisMs: 0.5, MinDwell: dwell, StaleAfter: stale}
	if tr != nil {
		p = tracedPolicy{p, tr.hook("control.decide")}
	}
	return p
}

// traceIngest times the switch's measurement hook (the monitor's
// Ingest, attached at establishment).
func traceIngest(sw *dataplane.Switch, h *obs.Histogram) {
	next := sw.OnMeasure
	sw.OnMeasure = func(m dataplane.Measurement) {
		t0 := time.Now()
		next(m)
		observe(h, t0)
	}
}

// tracedInvariant times a chaos checker.
type tracedInvariant struct {
	chaos.Invariant
	h *obs.Histogram
}

func (t tracedInvariant) Check(now sim.Time) error {
	t0 := time.Now()
	err := t.Invariant.Check(now)
	observe(t.h, t0)
	return err
}

// switchTotals sums the counters of a set of switches.
type switchTotals struct {
	encapped, decapped, bad, noTunnel, reportsSent uint64
}

func sumSwitches(sites []*core.Site) switchTotals {
	var t switchTotals
	for _, s := range sites {
		st := &s.Switch.Stats
		t.encapped += st.Encapped
		t.decapped += st.Decapped
		t.bad += st.BadPacket + st.AuthFail
		t.noTunnel += st.NoTunnel
		t.reportsSent += st.ReportsSent
	}
	return t
}

// simTotals is a snapshot of the simulator's own counters.
type simTotals struct {
	sw                switchTotals
	switches          uint64
	fired, cancelled  uint64
	epochs, crossMsgs uint64
	tx, lost, dropped uint64
}

func snapshotSim(w *simnet.Network, sites []*core.Site) simTotals {
	t := simTotals{sw: sumSwitches(sites)}
	for _, s := range sites {
		t.switches += s.Controller.Stats.Switches
	}
	for _, e := range engines(w) {
		t.fired += e.Stats.Fired
		t.cancelled += e.Stats.Cancelled
	}
	if c := w.Coord(); c != nil {
		t.epochs, t.crossMsgs = c.Stats.Epochs, c.Stats.CrossMsg
	}
	for _, lk := range w.Links() {
		for _, ln := range [2]*simnet.Line{lk.LineAB(), lk.LineBA()} {
			t.tx += ln.Stats.Tx
			t.lost += ln.Stats.Lost
			t.dropped += ln.Stats.Dropped
		}
	}
	return t
}

func engines(w *simnet.Network) []*sim.Engine {
	c := w.Coord()
	if c == nil {
		return []*sim.Engine{w.Eng}
	}
	out := make([]*sim.Engine, c.NumParts())
	for i := range out {
		out[i] = c.Part(i)
	}
	return out
}

// recordWindow stores the window's simulator deltas as per-layer values
// and sets the episode's frame counts.
func recordWindow(ep *episode, a, b simTotals) {
	l := ep.layer
	ep.frames = b.sw.decapped - a.sw.decapped
	ep.sent = b.sw.encapped - a.sw.encapped
	ep.failed = b.sw.bad - a.sw.bad + b.sw.noTunnel - a.sw.noTunnel
	l["dataplane.encapped"] = float64(ep.sent)
	l["dataplane.decapped"] = float64(ep.frames)
	l["dataplane.bad_packet"] = float64(b.sw.bad - a.sw.bad)
	l["dataplane.no_tunnel"] = float64(b.sw.noTunnel - a.sw.noTunnel)
	l["dataplane.reports_sent"] = float64(b.sw.reportsSent - a.sw.reportsSent)
	l["control.switches"] = float64(b.switches - a.switches)
	fired := b.fired - a.fired
	l["sim.events_fired"] = float64(fired)
	l["sim.events_cancelled"] = float64(b.cancelled - a.cancelled)
	if fired > 0 {
		l["sim.ns_per_event"] = float64(ep.window) / float64(fired)
	}
	l["sim.epochs"] = float64(b.epochs - a.epochs)
	l["sim.cross_msgs"] = float64(b.crossMsgs - a.crossMsgs)
	l["simnet.line_tx"] = float64(b.tx - a.tx)
	l["simnet.line_lost"] = float64(b.lost - a.lost)
	l["simnet.line_dropped"] = float64(b.dropped - a.dropped)
	if ep.sent > 0 {
		l["simnet.hops_per_pkt"] = float64(b.tx-a.tx) / float64(ep.sent)
		l["workload.loss_ratio"] = 1 - float64(ep.frames)/float64(ep.sent)
	}
}

// bestChanges sums BGP best-path changes over every speaker of a mesh
// scenario.
func bestChanges(s *topo.MeshScenario) uint64 {
	var n uint64
	for _, group := range []map[string]*topo.AS{s.POPs, s.Providers, s.Edges} {
		for _, as := range group {
			n += as.Speaker.Stats.BestChanges
		}
	}
	return n
}

// checkNetwork runs the conservation and buffer-balance invariants once,
// at an event boundary, and records failures in ep.
func checkNetwork(ep *episode, w *simnet.Network, label string) {
	for _, inv := range []chaos.Invariant{chaos.Conservation(label, w), chaos.BufferBalance(label, w)} {
		if err := inv.Check(w.Now()); err != nil {
			ep.failf("%s after drain: %v", inv.Name(), err)
		}
	}
}

// digestSites hashes the switch, controller and monitor state of sites,
// labelled by labels[i].
func digestSites(d *digester, sites []*core.Site, labels []string) {
	for i, s := range sites {
		name := labels[i]
		st := s.Switch.Stats
		d.add("switch "+name, st.Encapped, st.Decapped, st.NotTango, st.BadPacket,
			st.NoTunnel, st.AuthFail, st.ReportsSent, st.ReportsRecvd, st.Relayed)
		c := s.Controller
		d.add("controller "+name, c.Stats.Decisions, c.Stats.Switches, c.Stats.Reports, c.Current())
		d.add("monitor "+name, s.Monitor.Samples)
		for _, pm := range s.Monitor.Paths() {
			d.add(fmt.Sprintf("path %s %d %s", name, pm.ID, pm.Name),
				pm.OWD.N(), fmt.Sprintf("%.9f", pm.OWD.Mean()), fmt.Sprintf("%.9f", pm.OWD.Max()))
		}
	}
}

// digestLines hashes every line's counters, in construction order.
func digestLines(d *digester, w *simnet.Network) {
	for _, lk := range w.Links() {
		for _, ln := range [2]*simnet.Line{lk.LineAB(), lk.LineBA()} {
			st := ln.Stats
			d.add("line "+lk.Name(), st.Tx, st.Rx, st.Lost, st.Dropped, st.Bytes)
		}
	}
}
