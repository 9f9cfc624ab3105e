package main

import (
	"flag"
	"net/netip"
	"sort"
	"testing"
	"time"

	"tango/internal/control"
	"tango/internal/dataplane"
	"tango/internal/obs"
	"tango/internal/packet"
	"tango/internal/perf"
	"tango/internal/simnet"
	"tango/internal/topo"
)

// microResult is one per-call cost: the per-layer metric it feeds, its
// value in that metric's unit, and the raw ns/op and allocs/op.
type microResult struct {
	metric      string
	value       float64
	nsPerOp     float64
	allocsPerOp int64
}

// micros are the per-call costs behind the per-layer table. Where
// internal/perf has the body (encap and decap at 1 KiB, link traversal,
// wheel schedule+fire, flow emit, obs instruments, TE solve) it is
// reused as is; the other sizes mirror its fixtures.
var micros = []struct {
	metric string
	scale  float64 // ns/op to the metric's unit
	fn     func() func(*testing.B)
}{
	{"packet.verify_ns.64B", 1, func() func(*testing.B) { return benchVerify(64) }},
	{"packet.verify_ns.1400B", 1, func() func(*testing.B) { return benchVerify(1400) }},
	{"packet.serialize_ns.1KiB", 1, func() func(*testing.B) { return benchSerialize(1024) }},
	{"dataplane.encap_ns.64B", 1, func() func(*testing.B) { return benchEncap(64) }},
	{"dataplane.encap_ns.1KiB", 1, func() func(*testing.B) { return perf.BenchEncap }},
	{"dataplane.decap_ns.64B", 1, func() func(*testing.B) { return benchDecap(64) }},
	{"dataplane.decap_ns.1KiB", 1, func() func(*testing.B) { return perf.BenchDecap }},
	{"control.monitor_ingest_ns", 1, func() func(*testing.B) { return benchIngest }},
	{"workload.emit_ns", 1, func() func(*testing.B) { return perf.BenchFlowEmit }},
	{"sim.sched_fire_ns", 1, func() func(*testing.B) { return perf.BenchSchedFire }},
	{"simnet.link_traverse_ns", 1, func() func(*testing.B) { return perf.BenchLinkTraverse }},
	{"simnet.fib_lookup_ns", 1, benchFIBLookup},
	{"obs.counter_ns", 1, func() func(*testing.B) { return perf.BenchObsCounter }},
	{"obs.histogram_ns", 1, func() func(*testing.B) { return perf.BenchObsHistogram }},
	{"te.solve_us", 1e-3, func() func(*testing.B) { return perf.BenchSolverConverge }},
}

// runMicros times every micro with testing.Benchmark for a short fixed
// bench time.
func runMicros(small bool) []microResult {
	testing.Init()
	benchtime := "100ms"
	if small {
		benchtime = "5ms"
	}
	if err := flag.Set("test.benchtime", benchtime); err != nil {
		panic(err) // registered by testing.Init
	}
	out := make([]microResult, 0, len(micros))
	for _, m := range micros {
		r := testing.Benchmark(m.fn())
		ns := float64(r.NsPerOp())
		if r.N > 0 {
			ns = float64(r.T.Nanoseconds()) / float64(r.N)
		}
		out = append(out, microResult{metric: m.metric, value: ns * m.scale, nsPerOp: ns, allocsPerOp: r.AllocsPerOp()})
	}
	return out
}

var (
	microSrc = netip.MustParseAddr("2001:db8:aa::1")
	microDst = netip.MustParseAddr("2001:db8:bb::1")
)

// innerPacket serializes an IPv6/UDP host packet with n payload bytes.
func innerPacket(n int) []byte {
	buf := packet.NewSerializeBuffer()
	pay := packet.Payload(make([]byte, n))
	u := &packet.UDP{SrcPort: 7000, DstPort: 7001}
	u.SetNetworkForChecksum(microSrc, microDst)
	ip := &packet.IPv6{NextHeader: packet.ProtoUDP, HopLimit: 64, Src: microSrc, Dst: microDst}
	if err := packet.SerializeLayers(buf, ip, u, &pay); err != nil {
		panic(err) // fixed, valid layers
	}
	return append([]byte(nil), buf.Bytes()...)
}

// benchVerify measures UDP.VerifyChecksum over a datagram of n payload
// bytes: the receiver program's per-frame checksum.
func benchVerify(n int) func(*testing.B) {
	return func(b *testing.B) {
		pkt := innerPacket(n)
		var u packet.UDP
		if err := u.DecodeFromBytes(pkt[40:]); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := u.VerifyChecksum(microSrc, microDst, pkt[40:]); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// benchSerialize measures building an IPv6/UDP packet of n payload
// bytes into a reused buffer.
func benchSerialize(n int) func(*testing.B) {
	return func(b *testing.B) {
		buf := packet.NewSerializeBuffer()
		pay := packet.Payload(make([]byte, n))
		u := &packet.UDP{SrcPort: 7000, DstPort: 7001}
		u.SetNetworkForChecksum(microSrc, microDst)
		ip := &packet.IPv6{NextHeader: packet.ProtoUDP, HopLimit: 64, Src: microSrc, Dst: microDst}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := packet.SerializeLayers(buf, ip, u, &pay); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// benchEncap is perf.BenchEncap with an n-byte payload: an instrumented
// switch encapsulating onto a tunnel whose far end is unrouted, so each
// frame is consumed at the local node.
func benchEncap(n int) func(*testing.B) {
	return func(b *testing.B) {
		w := simnet.New(1)
		sw := dataplane.NewSwitch(w.AddNode("bench", 0))
		tun := &dataplane.Tunnel{PathID: 1, Name: "bench",
			LocalAddr:  netip.MustParseAddr("2001:db8:1::1"),
			RemoteAddr: netip.MustParseAddr("2001:db8:2::1"), SrcPort: 40001}
		sw.AddTunnel(tun)
		sw.Instrument(obs.NewRegistry(), "bench")
		inner := innerPacket(n)
		for i := 0; i < 128; i++ {
			sw.SendOnTunnel(tun, inner)
		}
		w.Eng.RunAll()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sw.SendOnTunnel(tun, inner)
		}
		b.StopTimer()
		w.Eng.RunAll()
	}
}

// benchDecap is perf.BenchDecap with an n-byte payload: an instrumented
// switch running the receiver program on a pre-built Tango frame.
func benchDecap(n int) func(*testing.B) {
	return func(b *testing.B) {
		w := simnet.New(2)
		node := w.AddNode("recv", 0)
		sw := dataplane.NewSwitch(node)
		sw.Instrument(obs.NewRegistry(), "bench")
		local := netip.MustParseAddr("2001:db8:2::1")
		remote := netip.MustParseAddr("2001:db8:1::1")
		node.AddAddr(local)
		buf := packet.NewSerializeBuffer()
		pay := packet.Payload(innerPacket(n))
		hdr := &packet.Tango{Flags: packet.TangoFlagSeq | packet.TangoFlagTimestamp | packet.TangoFlagInner6, PathID: 1, SendTime: 1}
		u := &packet.UDP{SrcPort: 40001, DstPort: packet.TangoPort}
		u.SetNetworkForChecksum(remote, local)
		ip := &packet.IPv6{NextHeader: packet.ProtoUDP, HopLimit: 64, Src: remote, Dst: local}
		if err := packet.SerializeLayers(buf, ip, u, hdr, &pay); err != nil {
			b.Fatal(err)
		}
		outer := append([]byte(nil), buf.Bytes()...)
		measured := 0
		sw.OnMeasure = func(dataplane.Measurement) { measured++ }
		for i := 0; i < 128; i++ {
			node.Inject(outer)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			node.Inject(outer)
		}
		b.StopTimer()
		if measured != b.N+128 {
			b.Fatalf("measured %d of %d", measured, b.N+128)
		}
	}
}

// benchIngest measures Monitor.Ingest: one receiver-side measurement
// folded into a path's estimators.
func benchIngest(b *testing.B) {
	m := control.NewMonitor()
	meas := dataplane.Measurement{PathID: 1, OWD: 20 * time.Millisecond, Size: 131}
	for i := 0; i < 128; i++ {
		meas.At += time.Millisecond
		meas.Seq++
		m.Ingest(meas, nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		meas.At += time.Millisecond
		meas.Seq++
		meas.OWD = 20*time.Millisecond + time.Duration(i%97)*time.Microsecond
		m.Ingest(meas, nil)
	}
}

// benchFIBLookup measures Node.LookupRoute on a POP of the 16-site wide
// mesh after BGP has converged, cycling over every edge host address.
// The mesh is built once, outside the timed loops.
func benchFIBLookup() func(*testing.B) {
	s, err := topo.NewMeshScenario(topo.WideMeshConfig(defaultSeed, 16))
	if err != nil {
		panic(err) // fixed config
	}
	s.Run(5 * time.Minute)
	n := s.POPs[s.SiteNames[0]].Node
	var addrs []netip.Addr
	for _, key := range sortedKeys(s.HostPrefix) {
		a, err := s.HostPrefix[key].Host(1)
		if err != nil {
			panic(err)
		}
		addrs = append(addrs, a)
	}
	return func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, ok := n.LookupRoute(addrs[i%len(addrs)]); !ok {
				b.Fatalf("no route to %v", addrs[i%len(addrs)])
			}
		}
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
