package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"net/netip"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"tango/internal/control"
	"tango/internal/dataplane"
	"tango/internal/obs"
	"tango/internal/packet"
	"tango/internal/transport/udp"
	"tango/internal/workload"
)

const (
	// floodWindow is how long one loopback episode floods.
	floodWindow      = 2500 * time.Millisecond
	floodWindowSmall = 300 * time.Millisecond
	// floodWarmup frames cross before the window opens, as part of
	// set-up, so pools, socket buffers and the scheduler have settled.
	floodWarmup = 4096
	// floodInFlight bounds the frames in flight: the driver tops the
	// window up whenever deliveries bring it down to half. 32 frames of
	// at most ~1.5 KB stay far below a loopback socket's receive buffer,
	// so the closed loop never overflows it.
	floodInFlight = 32
	// floodStall is how long the driver waits for any delivery before it
	// declares the outstanding frames lost.
	floodStall = 2 * time.Second
	// floodHdr is the inner header (IPv6 40 + UDP 8) plus the benchmark's
	// own prefix: sequence number and wall send time.
	floodHdr = 48 + 16
	// floodCapacity bounds the frames one episode may send (the sink's
	// duplicate bitmap), far above what a loopback socket pair carries.
	floodCapacity = 4 << 20
)

// floodSink receives flood frames at B's switch, on B's read goroutine.
type floodSink struct {
	base    time.Time
	tmpl    [workload.NumClasses][]byte
	pattern []byte

	delivered atomic.Uint64
	wake      chan struct{}
	// timedFrom is the first sequence number whose latency counts: the
	// first frame of the measured window.
	timedFrom atomic.Uint64
	// Written only on the read goroutine; read after the backend closes.
	seen    []uint64 // bitset of delivered sequence numbers
	lat     []uint32 // send-to-delivery wall time, ns (saturating)
	corrupt uint64
	dups    uint64
}

func newFloodSink(rng *rand.Rand) (*floodSink, error) {
	f := &floodSink{
		base:    time.Now(),
		pattern: make([]byte, 4096+2048),
		wake:    make(chan struct{}, 1),
		seen:    make([]uint64, floodCapacity/64),
	}
	rng.Read(f.pattern)
	src := netip.MustParseAddr("fd00:7461::a")
	dst := netip.MustParseAddr("fd00:7461::b")
	for c, spec := range workload.DefaultClasses() {
		buf := packet.NewSerializeBuffer()
		pay := packet.Payload(make([]byte, 16+spec.Payload))
		u := &packet.UDP{SrcPort: 7003, DstPort: 7003}
		u.SetNetworkForChecksum(src, dst)
		ip := &packet.IPv6{NextHeader: packet.ProtoUDP, HopLimit: 64, Src: src, Dst: dst}
		if err := packet.SerializeLayers(buf, ip, u, &pay); err != nil {
			return nil, fmt.Errorf("flood template: %w", err)
		}
		f.tmpl[c] = append([]byte(nil), buf.Bytes()...)
	}
	return f, nil
}

// frame fills buf with the inner frame for seq of class c, stamped now.
// Its payload after the stamp is a window of the seeded pattern chosen
// by seq, so the receiver can rebuild every byte it should get.
func (f *floodSink) frame(buf []byte, seq uint64, c workload.Class) []byte {
	t := f.tmpl[c]
	buf = append(buf[:0], t...)
	binary.BigEndian.PutUint64(buf[48:], seq)
	binary.BigEndian.PutUint64(buf[56:], uint64(time.Since(f.base)))
	off := patternOffset(seq)
	copy(buf[floodHdr:], f.pattern[off:off+len(t)-floodHdr])
	return buf
}

func patternOffset(seq uint64) int { return int(seq*131) % 4096 }

// deliver checks one delivered inner frame byte for byte against what
// its sequence number says was sent.
func (f *floodSink) deliver(inner []byte) {
	now := uint64(time.Since(f.base))
	ok := len(inner) >= floodHdr
	var seq uint64
	if ok {
		seq = binary.BigEndian.Uint64(inner[48:])
		ok = seq < floodCapacity
	}
	if ok {
		c := classOfSize(f.tmpl, len(inner))
		off := patternOffset(seq)
		ok = c >= 0 && bytes.Equal(inner[:48], f.tmpl[c][:48]) &&
			bytes.Equal(inner[floodHdr:], f.pattern[off:off+len(inner)-floodHdr])
	}
	switch {
	case !ok:
		f.corrupt++
	case f.seen[seq/64]&(1<<(seq%64)) != 0:
		f.dups++
	default:
		f.seen[seq/64] |= 1 << (seq % 64)
		if seq >= f.timedFrom.Load() {
			f.lat = append(f.lat, uint32(min(now-binary.BigEndian.Uint64(inner[56:]), 1<<32-1)))
		}
	}
	f.delivered.Add(1)
	select {
	case f.wake <- struct{}{}:
	default:
	}
}

func classOfSize(tmpl [workload.NumClasses][]byte, n int) int {
	for c, t := range tmpl {
		if len(t) == n {
			return c
		}
	}
	return -1
}

// waitBelow blocks until at most limit of sent frames are undelivered,
// reporting false if no delivery arrives for stall.
func (f *floodSink) waitBelow(sent uint64, limit int, stall time.Duration) bool {
	timer := time.NewTimer(stall)
	defer timer.Stop()
	for {
		if sent-f.delivered.Load() <= uint64(limit) {
			return true
		}
		select {
		case <-f.wake:
			if !timer.Stop() {
				<-timer.C
			}
			timer.Reset(stall)
		case <-timer.C:
			return false
		}
	}
}

// flooder is the closed-loop driver: it sends frames into A's switch
// inside A's Do, keeping at most floodInFlight undelivered.
type flooder struct {
	a    *udp.Backend
	sw   *dataplane.Switch
	sink *floodSink
	rng  *rand.Rand
	sent uint64
	buf  []byte
	cls  []workload.Class
	// doWait and doTotal time the Do calls when traced (else nil).
	doWait, doTotal *obs.Histogram
}

// pump floods until more reports true, then returns false if the loop
// stalled (a frame was lost).
func (f *flooder) pump(more func() bool) bool {
	for more() && f.sent < floodCapacity-floodInFlight {
		n := floodInFlight - int(f.sent-f.sink.delivered.Load())
		f.cls = f.cls[:0]
		for i := 0; i < n; i++ {
			f.cls = append(f.cls, workload.Class(f.rng.Intn(workload.NumClasses)))
		}
		first := f.sent
		t0 := time.Now()
		f.a.Do(func() {
			if f.doWait != nil {
				observe(f.doWait, t0)
			}
			for i, c := range f.cls {
				f.buf = f.sink.frame(f.buf, first+uint64(i), c)
				f.sw.SendToPeer(f.buf)
			}
		})
		if f.doTotal != nil {
			observe(f.doTotal, t0)
		}
		f.sent += uint64(n)
		if !f.sink.waitBelow(f.sent, floodInFlight/2, floodStall) {
			return false
		}
	}
	return true
}

// loopbackFlood runs two UDP backends in this process on 127.0.0.1, each
// with a switch instrumented as tangod instruments it, and one tunnel
// A->B with no emulated delay. The driver keeps a bounded number of
// frames in flight, sending inside A's Do; B's monitor measures every
// frame and a sink checks every delivered frame's bytes.
func loopbackFlood(e *env) (*episode, error) {
	// One P: on a shared 2-vCPU box, a two-thread closed loop lost half
	// its throughput whenever the host took one vCPU away (runs spread
	// 76k–169k frames/s at equal CPU per frame); a one-thread loop is
	// not exposed to that.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ep := newEpisode()
	tr := e.tr
	window := floodWindow
	if e.small {
		window = floodWindowSmall
	}
	rng := rand.New(rand.NewSource(e.seed))

	t0 := time.Now()
	setup := tr.begin("setup")
	sp := tr.begin("wire")
	regA, regB := obs.NewRegistry(), obs.NewRegistry()
	a, err := udp.New(udp.Config{Name: "a", Listen: "127.0.0.1:0", Registry: regA})
	if err != nil {
		return nil, err
	}
	defer a.Close()
	b, err := udp.New(udp.Config{Name: "b", Listen: "127.0.0.1:0", Registry: regB})
	if err != nil {
		return nil, err
	}
	defer b.Close()
	swA, swB := dataplane.NewSwitch(a), dataplane.NewSwitch(b)
	swA.Instrument(regA, "a")
	swB.Instrument(regB, "b")
	mon := control.NewMonitor()
	mon.Instrument(regB, "b")
	mon.Attach(swB, func(uint8) string { return "loop" })
	srcAddr, _ := udp.SiteAddrs("a", 1)
	_, dstEps := udp.SiteAddrs("b", 1)
	b.AddAddr(dstEps[0])
	a.AddRoute(dstEps[0], b.Addr(), 0)
	swA.AddTunnel(&dataplane.Tunnel{PathID: 1, Name: "loop", LocalAddr: srcAddr, RemoteAddr: dstEps[0], SrcPort: 41000})

	sink, err := newFloodSink(rng)
	if err != nil {
		return nil, err
	}
	sink.timedFrom.Store(floodCapacity)
	swB.DeliverLocal = sink.deliver
	if tr != nil {
		traceIngest(swB, tr.hook("control.ingest"))
		h := tr.hook("bench.verify")
		swB.DeliverLocal = func(inner []byte) {
			t0 := time.Now()
			sink.deliver(inner)
			observe(h, t0)
		}
	}
	a.Start()
	b.Start()
	tr.end(sp)
	sp = tr.begin("warmup")
	fl := &flooder{a: a, sw: swA, sink: sink, rng: rng}
	if !fl.pump(func() bool { return fl.sent < floodWarmup }) {
		return nil, fmt.Errorf("warm-up stalled after %d frames", fl.sent)
	}
	tr.end(sp)
	ep.setup = time.Since(t0)
	tr.end(setup)
	noteHeap(ep)

	if tr != nil {
		fl.doWait, fl.doTotal = tr.hook("udp.do_wait"), tr.hook("udp.do")
	}
	var txA0, txA1, wrErr0, wrErr1, rxB0, rxB1 uint64
	snap := func(tx, wr, rx *uint64) {
		a.Do(func() { st := a.Stats(); *tx, *wr = st.TxFrames, st.WriteErr })
		b.Do(func() { *rx = swB.Stats.Decapped })
	}
	snap(&txA0, &wrErr0, &rxB0)
	sink.timedFrom.Store(fl.sent)
	encap0, _ := dataplaneObsSums(regA)
	_, decap0 := dataplaneObsSums(regB)
	win := tr.begin("window")
	meter := startMeter(sink.delivered.Load)
	next := meter.t0.Add(sampleEvery)
	sl := tr.begin("slice")
	ok := fl.pump(func() bool {
		now := time.Now()
		if now.After(next) {
			tr.end(sl)
			meter.lap()
			sl = tr.begin("slice")
			next = next.Add(sampleEvery)
		}
		return now.Sub(meter.t0) < window
	})
	tr.end(sl)
	meter.stop(ep)
	tr.end(win)
	snap(&txA1, &wrErr1, &rxB1)
	encap1, _ := dataplaneObsSums(regA)
	_, decap1 := dataplaneObsSums(regB)

	sp = tr.begin("drain")
	if ok {
		sink.waitBelow(fl.sent, 0, floodStall)
	}
	var failedA, bad, decapped uint64
	a.Do(func() { failedA = swA.Stats.NoTunnel + swA.Stats.BadPacket })
	b.Do(func() { bad = swB.Stats.BadPacket; decapped = swB.Stats.Decapped })
	// Close joins the read loop, which orders its writes to the sink
	// before the reads below.
	a.Close()
	b.Close()
	tr.end(sp)

	ep.frames = rxB1 - rxB0
	ep.sent = fl.sent
	lost := fl.sent - min(fl.sent, sink.delivered.Load())
	ep.failed = lost + sink.corrupt + sink.dups + bad + failedA
	if lost > 0 {
		ep.failf("%d of %d frames not delivered", lost, fl.sent)
	}
	if sink.corrupt > 0 {
		ep.failf("%d delivered frames differ from what was sent", sink.corrupt)
	}
	if sink.dups > 0 {
		ep.failf("%d frames delivered twice", sink.dups)
	}
	if decapped > fl.sent {
		ep.failf("decapsulated %d > sent %d", decapped, fl.sent)
	}
	if ep.frames == 0 {
		ep.failf("no frames decapsulated in the window")
	}

	l := ep.layer
	l["dataplane.encapped"] = float64(txA1 - txA0)
	l["dataplane.decapped"] = float64(ep.frames)
	l["dataplane.bad_packet"] = float64(bad)
	l["dataplane.no_tunnel"] = float64(failedA)
	l["udp.tx_frames"] = float64(txA1 - txA0)
	l["udp.rx_frames"] = float64(ep.frames)
	l["udp.write_err"] = float64(wrErr1 - wrErr0)
	if ep.frames > 0 {
		l["udp.user_ns_per_frame"] = float64(ep.user) / float64(ep.frames)
		l["udp.sys_ns_per_frame"] = float64(ep.sys) / float64(ep.frames)
	}
	l["workload.loss_ratio"] = float64(lost) / float64(ep.sent)
	l["obs.encap_ns_sum"] = encap1 - encap0
	l["obs.decap_ns_sum"] = decap1 - decap0
	lat := make([]float64, len(sink.lat))
	for i, v := range sink.lat {
		lat[i] = float64(v)
	}
	sort.Float64s(lat)
	l["udp.latency_p50_us"] = quantile(lat, 0.50) / 1e3
	l["udp.latency_p99_us"] = quantile(lat, 0.99) / 1e3
	l["udp.latency_samples"] = float64(len(lat))
	sink.lat, sink.seen = nil, nil
	noteHeap(ep)
	return ep, nil
}
