package simnet

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"tango/internal/packet"
)

// fullIPv4Checksum recomputes an IPv4 header checksum in full, one
// 16-bit word at a time, skipping the checksum field itself.
func fullIPv4Checksum(hdr []byte) uint16 {
	var sum uint32
	for i := 0; i+1 < len(hdr); i += 2 {
		if i != 10 {
			sum += uint32(binary.BigEndian.Uint16(hdr[i:]))
		}
	}
	for sum > 0xffff {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}

// TestDecHopLimitIPv4ChecksumIncremental pins the RFC 1624 update in
// decHopLimit against a full recompute on random valid IPv4 headers
// (with and without options), including headers whose checksum is
// 0x0000, the same header carrying the equivalent 0xffff, and headers
// whose checksum becomes 0x0000 after the decrement.
func TestDecHopLimitIPv4ChecksumIncremental(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var seen0, seen0xffff, out0 int
	for i := 0; i < 20000; i++ {
		ihl := 20 + 4*rng.Intn(11)
		data := make([]byte, ihl+rng.Intn(64))
		rng.Read(data)
		data[0] = 4<<4 | byte(ihl/4)
		binary.BigEndian.PutUint16(data[2:4], uint16(len(data)))
		data[8] = byte(2 + rng.Intn(254)) // TTL 2–255
		hdr := data[:ihl]

		// Tune the ID field so the checksum lands on a chosen value:
		// variants 1 and 3 make it 0x0000 before the decrement (3 then
		// stores the equivalent 0xffff), variant 2 makes it 0x0000
		// after (the decrement subtracts 0x100 from the header sum).
		if v := i % 4; v != 0 {
			binary.BigEndian.PutUint16(hdr[4:6], 0)
			s := ^fullIPv4Checksum(hdr) // header sum with ID 0, in [1, 0xffff]
			want := uint16(0xffff)      // sum that gives checksum 0x0000
			if v == 2 {
				want = 0x0100 // 0x0100 + ^0x0100 = 0xffff after the decrement
			}
			// One's-complement want - s: the ID that brings s to want.
			binary.BigEndian.PutUint16(hdr[4:6], uint16((uint32(want)+0xffff-uint32(s))%0xffff))
		}
		c := fullIPv4Checksum(hdr)
		if i%4 == 3 {
			if c != 0 {
				t.Fatalf("case %d: tuned checksum %#04x, want 0", i, c)
			}
			c = 0xffff
		}
		binary.BigEndian.PutUint16(hdr[10:12], c)
		switch c {
		case 0:
			seen0++
		case 0xffff:
			seen0xffff++
		}
		var ip packet.IPv4
		if err := ip.DecodeFromBytes(data); err != nil {
			t.Fatalf("case %d: fixture rejected before forwarding: %v", i, err)
		}

		ttl := data[8]
		decHopLimit(data)
		if data[8] != ttl-1 {
			t.Fatalf("case %d: TTL %d -> %d", i, ttl, data[8])
		}
		got := binary.BigEndian.Uint16(hdr[10:12])
		if want := fullIPv4Checksum(hdr); got != want {
			t.Fatalf("case %d (ihl %d, ttl %d, checksum %#04x): incremental %#04x, full recompute %#04x",
				i, ihl, ttl, c, got, want)
		}
		if got == 0 {
			out0++
		}
		if err := ip.DecodeFromBytes(data); err != nil {
			t.Fatalf("case %d: forwarded header rejected: %v", i, err)
		}
	}
	if seen0 == 0 || seen0xffff == 0 || out0 == 0 {
		t.Fatalf("edge cases not reached: in 0x0000 %d, in 0xffff %d, out 0x0000 %d", seen0, seen0xffff, out0)
	}
}
