package main

import (
	"fmt"
	"sort"
	"time"

	"tango/internal/core"
	"tango/internal/events"
	"tango/internal/sim"
	"tango/internal/topo"
)

// pairProbe is the paper's two-site Vultr deployment, built with the
// calls tango.NewLab and Lab.Establish make: five providers, 10 ms probes
// on every path in both directions, MinOWD decisions every second, one
// route shift on the path NY currently uses and one instability episode,
// so the controllers switch paths. Classic engine, no obs instruments:
// the smallest frames, so fixed per-packet costs dominate.
func pairProbe(e *env) (*episode, error) {
	ep := newEpisode()
	tr := e.tr
	window := 10 * time.Minute
	if e.small {
		window = time.Minute
	}
	rng := sim.NewStreams(e.seed).Stream("perfbench/pair-probe")

	t0 := time.Now()
	setup := tr.begin("setup")
	sp := tr.begin("topo.build")
	s, err := topo.NewVultrScenario(topo.ScenarioConfig{Seed: e.seed})
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
	p := core.VultrPair(s, core.PairConfig{
		ProbeInterval: 10 * time.Millisecond,
		DecideEvery:   time.Second,
		PolicyA:       minOWD(tr, 2*time.Second, 10*time.Second),
		PolicyB:       minOWD(tr, 2*time.Second, 10*time.Second),
	})
	p.Establish()
	if !p.RunUntilReady(2 * time.Hour) {
		return nil, fmt.Errorf("establishment did not complete")
	}
	tr.end(sp)
	t3 := time.Now()
	sp = tr.begin("wire")
	sites := []*core.Site{p.A, p.B}
	if tr != nil {
		for _, st := range sites {
			traceIngest(st.Switch, tr.hook("control.ingest"))
		}
	}
	start := w.Now()
	scheduleIncidents(s, p, rng, start, window)
	tr.end(sp)
	ep.setup = time.Since(t0)
	tr.end(setup)
	l := ep.layer
	l["topo.build_s"] = t1.Sub(t0).Seconds()
	l["bgp.converge_s"] = t2.Sub(t1).Seconds()
	l["discovery.s"] = t3.Sub(t2).Seconds()
	l["discovery.virtual_s"] = (start - v0).Seconds()
	l["discovery.paths"] = float64(len(p.A.OutPaths) + len(p.B.OutPaths))
	l["bgp.best_changes"] = float64(bestChanges(s.MeshScenario))
	noteHeap(ep)

	before := snapshotSim(w, sites)
	win := tr.begin("window")
	m := startMeter(func() uint64 { return sumSwitches(sites).decapped })
	for at := start + time.Second; at <= start+window; at += time.Second {
		sl := tr.begin("slice")
		w.Run(at)
		tr.end(sl)
		m.lap()
	}
	m.stop(ep)
	tr.end(win)
	after := snapshotSim(w, sites)
	recordWindow(ep, before, after)

	// Drain: stop every packet source, let in-flight frames land, then
	// hold the books to account.
	sp = tr.begin("drain")
	for _, st := range sites {
		st.Prober.Stop()
		st.Reporter.Stop()
		st.Controller.Stop()
	}
	w.Run(w.Now() + 5*time.Second)
	tr.end(sp)
	noteHeap(ep)
	checkNetwork(ep, w, "pair")
	total := sumSwitches(sites)
	if total.decapped > total.encapped {
		ep.failf("decapsulated %d > encapsulated %d", total.decapped, total.encapped)
	}
	if ep.frames == 0 {
		ep.failf("no frames decapsulated in the window")
	}
	if after.switches == before.switches {
		ep.failf("no controller switched paths during the window")
	}

	d := newDigester()
	digestSites(d, sites, []string{"ny", "la"})
	for _, st := range sites {
		d.add("prober "+st.Spec.Name, st.Prober.Sent)
	}
	digestLines(d, w)
	ep.digest = d.sum()
	return ep, nil
}

// scheduleIncidents draws the episode's two incidents from rng: a route
// shift on whichever NY->LA path NY's controller uses when it lands (so
// NY must move), and an instability window on one LA->NY provider.
func scheduleIncidents(s *topo.Scenario, p *core.Pair, rng *sim.RNG, start, window time.Duration) {
	eng := s.B.W.Eng
	frac := func(lo, hi float64) time.Duration {
		return time.Duration((lo + (hi-lo)*rng.Float64()) * float64(window))
	}
	shiftAt, shiftFor := start+frac(0.1, 0.3), frac(0.2, 0.4)
	delta := time.Duration(15+rng.Intn(16)) * time.Millisecond
	eng.ScheduleAt(shiftAt, func() {
		line := s.TrunkToLA[p.A.PathName(p.A.Controller.Current())]
		if line == nil {
			return // no path chosen yet; the digest records it
		}
		(&events.RouteShift{Line: line, At: eng.Now(), Duration: shiftFor, Delta: delta}).Schedule(line.Eng())
	})

	providers := make([]string, 0, len(s.TrunkToNY))
	for n := range s.TrunkToNY {
		providers = append(providers, n)
	}
	sort.Strings(providers)
	line := s.TrunkToNY[providers[rng.Intn(len(providers))]]
	peak := 40 * time.Millisecond
	(&events.Instability{
		Line:           line,
		At:             start + frac(0.5, 0.7),
		Duration:       frac(0.1, 0.2),
		SpikeProb:      0.2,
		SpikeMean:      peak / 3,
		SpikeCap:       peak,
		MinorExtraMean: time.Millisecond,
		MinorExtraStd:  1500 * time.Microsecond,
	}).Schedule(line.Eng())
}
