package packet

import (
	"encoding/binary"
	"math/rand"
	"net/netip"
	"testing"
)

// refChecksum is the reference RFC 1071 sum the word-at-a-time kernel
// must equal: one big-endian 16-bit word at a time into a 32-bit
// accumulator, an odd last byte as the high half of a word, then fold.
// The accumulator cannot overflow while initial+0xffff*len(data)/2 fits
// in 32 bits, which holds for any IP datagram and pseudo-header.
func refChecksum(data []byte, initial uint32) uint16 {
	sum := initial
	n := len(data) &^ 1
	for i := 0; i < n; i += 2 {
		sum += uint32(binary.BigEndian.Uint16(data[i : i+2]))
	}
	if len(data)&1 != 0 {
		sum += uint32(data[len(data)-1]) << 8
	}
	for sum > 0xffff {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}

// refUDPChecksumRaw is the reference pseudo-header sum: each address as
// 16-bit words, then protocol and length, fed to refChecksum.
func refUDPChecksumRaw(src, dst netip.Addr, datagram []byte) uint16 {
	var sum uint32
	for _, a := range []netip.Addr{src, dst} {
		var b []byte
		if a.Is4() {
			b4 := a.As4()
			b = b4[:]
		} else {
			b16 := a.As16()
			b = b16[:]
		}
		for i := 0; i < len(b); i += 2 {
			sum += uint32(binary.BigEndian.Uint16(b[i:]))
		}
	}
	sum += ProtoUDP + uint32(len(datagram))
	return refChecksum(datagram, sum)
}

// maxPseudoSum is the largest unfolded IPv6 pseudo-header sum: sixteen
// all-ones address words, the protocol and a 0xffff length.
const maxPseudoSum = 16*0xffff + ProtoUDP + 0xffff

var checksumInitials = []uint32{0, 1, 0xffff, 0x1fffe, maxPseudoSum}

// checksumFills are the byte patterns the equivalence sweep covers: the
// all-zero and all-ones extremes (where end-around carries pile up or
// never happen) and a seeded random fill.
func checksumFills(n int) map[string][]byte {
	zero := make([]byte, n)
	ones := make([]byte, n)
	for i := range ones {
		ones[i] = 0xff
	}
	random := make([]byte, n)
	rand.New(rand.NewSource(1)).Read(random)
	return map[string][]byte{"zero": zero, "0xff": ones, "random": random}
}

// TestChecksumMatchesReference sweeps every length 0–2048 at every start
// offset 0–7 (unaligned sub-slices), with each initial sum and fill, and
// requires the kernel to equal the reference bit for bit.
func TestChecksumMatchesReference(t *testing.T) {
	const maxLen, maxOff = 2048, 7
	for name, fill := range checksumFills(maxLen + maxOff) {
		for off := 0; off <= maxOff; off++ {
			for n := 0; n <= maxLen; n++ {
				data := fill[off : off+n]
				for _, init := range checksumInitials {
					if got, want := checksum(data, uint64(init)), refChecksum(data, init); got != want {
						t.Fatalf("fill %s, offset %d, length %d, initial %#x: got %#04x, want %#04x",
							name, off, n, init, got, want)
					}
				}
			}
		}
	}
}

// TestUDPChecksumMatchesReference checks the 64-bit pseudo-header sum
// against the 16-bit reference for IPv4, IPv6 and IPv4-mapped IPv6
// addresses, including the all-ones addresses that carry the most.
func TestUDPChecksumMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	randAddr := func(kind int) netip.Addr {
		var b [16]byte
		rng.Read(b[:])
		switch kind {
		case 0:
			return netip.AddrFrom4([4]byte(b[:4]))
		case 1:
			return netip.AddrFrom16(b)
		case 2:
			return netip.AddrFrom16(netip.AddrFrom4([4]byte(b[:4])).As16())
		case 3:
			return netip.AddrFrom4([4]byte{0xff, 0xff, 0xff, 0xff})
		default:
			return netip.AddrFrom16([16]byte{0: 0xff, 1: 0xff, 2: 0xff, 3: 0xff, 4: 0xff, 5: 0xff, 6: 0xff, 7: 0xff,
				8: 0xff, 9: 0xff, 10: 0xff, 11: 0xff, 12: 0xff, 13: 0xff, 14: 0xff, 15: 0xff})
		}
	}
	fills := checksumFills(1500)
	for i := 0; i < 5000; i++ {
		src, dst := randAddr(rng.Intn(5)), randAddr(rng.Intn(5))
		data := fills[[]string{"zero", "0xff", "random"}[i%3]][:rng.Intn(1501)]
		if got, want := udpChecksumRaw(src, dst, data), refUDPChecksumRaw(src, dst, data); got != want {
			t.Fatalf("src %v dst %v length %d: got %#04x, want %#04x", src, dst, len(data), got, want)
		}
	}
}

// FuzzChecksum compares the kernel with the reference on arbitrary
// bytes, start offsets and initial sums (clamped to the range in which
// the reference's 32-bit accumulator is exact).
func FuzzChecksum(f *testing.F) {
	f.Add([]byte{}, uint8(0), uint32(0))
	f.Add([]byte{0x01}, uint8(0), uint32(0))
	f.Add([]byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}, uint8(0), uint32(0))
	f.Add(make([]byte, 37), uint8(3), uint32(maxPseudoSum))
	ones := make([]byte, 71)
	for i := range ones {
		ones[i] = 0xff
	}
	f.Add(ones, uint8(5), uint32(0xffff))
	f.Add(ones, uint8(1), uint32(0x1fffe))

	f.Fuzz(func(t *testing.T, data []byte, off uint8, initial uint32) {
		if len(data) > 0xffff {
			data = data[:0xffff]
		}
		data = data[min(int(off%8), len(data)):]
		initial %= maxPseudoSum + 1
		if got, want := checksum(data, uint64(initial)), refChecksum(data, initial); got != want {
			t.Fatalf("length %d, initial %#x: got %#04x, want %#04x", len(data), initial, got, want)
		}
	})
}

// TestUDPVerifyChecksumIgnoresPadding is the regression test for a
// valid datagram inside a padded IP payload: verification covers only
// the UDP length, so the padding neither rejects a good datagram nor
// hides a corrupted one.
func TestUDPVerifyChecksumIgnoresPadding(t *testing.T) {
	buf := NewSerializeBuffer()
	pay := Payload([]byte("padded datagram"))
	u := &UDP{SrcPort: 5000, DstPort: 5001}
	u.SetNetworkForChecksum(srcV6, dstV6)
	ip := &IPv6{NextHeader: ProtoUDP, HopLimit: 64, Src: srcV6, Dst: dstV6}
	if err := SerializeLayers(buf, ip, u, &pay); err != nil {
		t.Fatal(err)
	}
	// Append padding to the IP payload and grow its payload length to
	// match, so the IPv6 header covers the trailing bytes.
	pkt := append(append([]byte(nil), buf.Bytes()...), 0xde, 0xad, 0xbe)
	binary.BigEndian.PutUint16(pkt[4:6], uint16(len(pkt)-ipv6HeaderLen))

	decode := func(pkt []byte) (*IPv6, *UDP) {
		t.Helper()
		var dip IPv6
		var dudp UDP
		if err := dip.DecodeFromBytes(pkt); err != nil {
			t.Fatal(err)
		}
		if err := dudp.DecodeFromBytes(dip.LayerPayload()); err != nil {
			t.Fatal(err)
		}
		return &dip, &dudp
	}
	dip, dudp := decode(pkt)
	if string(dudp.LayerPayload()) != "padded datagram" {
		t.Fatalf("payload %q", dudp.LayerPayload())
	}
	if err := dudp.VerifyChecksum(dip.Src, dip.Dst, dip.LayerPayload()); err != nil {
		t.Fatalf("padded valid datagram rejected: %v", err)
	}

	bad := append([]byte(nil), pkt...)
	bad[ipv6HeaderLen+udpHeaderLen] ^= 0x40 // corrupt the first payload byte
	dip, dudp = decode(bad)
	if err := dudp.VerifyChecksum(dip.Src, dip.Dst, dip.LayerPayload()); err == nil {
		t.Fatal("padded corrupted datagram passed checksum")
	}

	// A datagram shorter than the UDP length it was decoded with is truncated.
	short := dip.LayerPayload()[:udpHeaderLen+2]
	if err := dudp.VerifyChecksum(dip.Src, dip.Dst, short); err == nil {
		t.Fatal("datagram shorter than its UDP length passed checksum")
	}
}
