package sim

import "math/bits"

// Hierarchical timing wheel: the engine's pending-event store.
//
// The classic DES priority queue (container/heap) pays O(log n) pointer
// chasing per schedule and per fire. The wheel replaces that with O(1)
// bucket arithmetic, the same structure ns-3's calendar queue and the
// kernel's timer wheel use, adapted to exact virtual time:
//
//   - Virtual time is quantized into granules of 2^granBits ns. Level 0
//     has one bucket per granule across a 64-granule window; each higher
//     level widens its buckets by 64×, so numLevels levels cover
//     64^numLevels granules (≈9 years of virtual time at 1 µs granules).
//     Anything beyond that horizon waits on an overflow chain.
//   - An event's bucket is derived from the highest 6-bit digit in which
//     its granule index differs from the cursor's ("base"): digit L
//     differs → level L, slot = that digit. Events in the same bucket are
//     chained through Event.next (unordered — chains are prepend-only, so
//     insertion allocates nothing and touches one pointer).
//   - The cursor only moves forward. Entering a region cascades that
//     region's bucket into lower levels; expiring a level-0 bucket sorts
//     its chain by (at, seq) into the "due" chain the engine fires from.
//
// Exactness is what distinguishes this wheel from the kernel's: a timer
// wheel may fire late by up to a bucket width, but a DES scheduler must
// fire every event at its exact (at, seq) position or replay determinism
// breaks. The due-chain sort restores the total order that bucketing
// coarsened, and two invariants keep the order global rather than merely
// per-bucket:
//
//	inv-1  every bucketed event's granule index is ≥ base, and every
//	       due-chain event's is < base, so the sorted due chain strictly
//	       precedes everything still in buckets (granule(at) < base
//	       ⇒ at < base<<granBits ≤ any bucketed event's at);
//	inv-2  the cursor never moves past an occupied bucket: before the
//	       level-0 window is scanned, any bucket sitting at the cursor's
//	       own digit of a higher level (a region the cursor has entered,
//	       whose events may be due anywhere inside it) is cascaded down,
//	       and the cursor only jumps to the earliest occupied slot of the
//	       lowest non-empty level, which always precedes every slot of
//	       the levels above it;
//	inv-3  the cursor never moves onto a bucket that starts after the
//	       granule limit refill is given; Run(until) passes
//	       granule(until), so unless the cursor was already further, a
//	       Run(until) leaves base ≤ granule(until)+1 and a later schedule
//	       past until's granule files into a bucket in O(1) instead of
//	       being spliced into the due chain by a walk from its head. A
//	       coordinator barrier depends on this: every event it drains is
//	       at or after the epoch end, and an unbounded peek at the end of
//	       Run would park the cursor on the partition's next local event,
//	       often a far-off timer, with every drained event behind it.
//	       Step and NextAt stay unbounded, and so does the coupled
//	       interleave, which asks every partition for NextAt once per
//	       fire: bounding those peeks by the epoch end would make each
//	       partition whose next event lies beyond it re-scan its wheel
//	       levels on every call, costing more than the splices it saves.
//
// Same-instant FIFO comes out of the (at, seq) sort: seq is assigned in
// scheduling order and tie-breaks equal timestamps exactly as the old
// heap's comparison did, so the wheel fires the byte-identical sequence.
const (
	granBits    = 10 // level-0 bucket width: 2^10 ns ≈ 1 µs of virtual time
	levelBits   = 6  // 64 buckets per level
	wheelSlots  = 1 << levelBits
	slotMask    = wheelSlots - 1
	numLevels   = 8                     // 48 bits of granules ≈ 9.1 years
	horizonBits = numLevels * levelBits // granule deltas ≥ 2^48 overflow
)

type wheelLevel struct {
	slot     [wheelSlots]*Event
	occupied uint64 // bit s set ⇔ slot[s] != nil
}

type wheel struct {
	level [numLevels]wheelLevel
	// base is the cursor: the granule index the wheel has advanced to.
	// Monotonically non-decreasing; all bucketed events live at granule
	// ≥ base (inv-1).
	base int64
	// due is the sorted (at, seq) chain the engine fires from: every
	// pending event whose granule precedes base. dueTail makes the
	// common same-instant append O(1).
	due     *Event
	dueTail *Event
	// overflow chains events beyond the wheel horizon (notably timers
	// clamped to Forever). overflowMin tracks the earliest granule on the
	// chain so an exhausted wheel can rebase onto it.
	overflow    *Event
	overflowMin int64
}

func granule(t Time) int64 { return int64(t) >> granBits }

// unbounded is the refill limit that lets the cursor reach any bucket:
// no event's granule exceeds granule(Forever).
const unbounded = int64(Forever) >> granBits

func eventLess(a, b *Event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// place files ev into the due chain, a bucket, or the overflow chain,
// according to where its granule falls relative to the cursor.
func (w *wheel) place(e *Engine, ev *Event) {
	u := granule(ev.at)
	if u < w.base {
		w.insertDue(e, ev)
		return
	}
	x := uint64(u ^ w.base)
	if bits.Len64(x) > horizonBits {
		if w.overflow == nil || u < w.overflowMin {
			w.overflowMin = u
		}
		ev.next = w.overflow
		w.overflow = ev
		return
	}
	l := 0
	if x != 0 {
		l = (bits.Len64(x) - 1) / levelBits
	}
	s := (u >> (uint(l) * levelBits)) & slotMask
	lv := &w.level[l]
	ev.next = lv.slot[s]
	lv.slot[s] = ev
	lv.occupied |= 1 << uint(s)
}

// insertDue splices ev into the sorted due chain at its (at, seq)
// position. Events scheduled for the current instant carry the largest
// seq so far, so the overwhelmingly common case is an O(1) tail append;
// mid-chain positions (an event scheduled into an earlier granule than
// the chain's tail) take a walk from the head and are counted in
// Stats.DueSplices.
func (w *wheel) insertDue(e *Engine, ev *Event) {
	tail := w.dueTail
	if tail == nil {
		ev.next = nil
		w.due, w.dueTail = ev, ev
		return
	}
	if eventLess(tail, ev) {
		ev.next = nil
		tail.next = ev
		w.dueTail = ev
		return
	}
	if eventLess(ev, w.due) {
		ev.next = w.due
		w.due = ev
		return
	}
	e.Stats.DueSplices++
	p := w.due
	for p.next != nil && eventLess(p.next, ev) {
		p = p.next
	}
	ev.next = p.next
	p.next = ev
	if ev.next == nil {
		w.dueTail = ev
	}
}

// popDue unlinks and returns the due chain's head (nil if empty).
func (w *wheel) popDue() *Event {
	ev := w.due
	if ev == nil {
		return nil
	}
	w.due = ev.next
	if w.due == nil {
		w.dueTail = nil
	}
	ev.next = nil
	return ev
}

// take detaches and returns slot s of level l.
func (w *wheel) take(l, s int) *Event {
	lv := &w.level[l]
	chain := lv.slot[s]
	lv.slot[s] = nil
	lv.occupied &^= 1 << uint(s)
	return chain
}

// refill advances the cursor to the next occupied bucket, cascading
// higher levels as regions are entered, and loads that bucket — sorted,
// tombstones dropped — into the due chain. It reports whether any live
// event became due. It reports false without moving the cursor if the
// next occupied bucket starts after granule limit (inv-3). It never
// touches the clock: calling it early (NextAt peeking ahead) only moves
// events between buckets, which cannot change the (at, seq) fire order.
func (w *wheel) refill(e *Engine, limit int64) bool {
	if e.nlive+e.ntomb == 0 {
		return false
	}
	for {
		// inv-2, part 1: cascade any occupied bucket at the cursor's own
		// digit, lowest level first. Such a bucket covers a region the
		// cursor already entered, so its events may precede anything the
		// level-0 window holds.
		cascaded := false
		for l := 1; l < numLevels; l++ {
			d := (w.base >> (uint(l) * levelBits)) & slotMask
			if w.level[l].occupied&(1<<uint(d)) != 0 {
				w.drain(e, l, int(d))
				cascaded = true
				break
			}
		}
		if cascaded {
			continue
		}
		// Level-0 window: earliest occupied slot at or after the cursor.
		if m := w.level[0].occupied &^ (1<<uint(w.base&slotMask) - 1); m != 0 {
			k := int64(bits.TrailingZeros64(m))
			u := w.base&^slotMask | k
			if u > limit {
				return false
			}
			chain := w.take(0, int(k))
			w.base = u + 1
			e.sortIntoDue(chain)
			if w.due != nil {
				return true
			}
			continue // bucket held only tombstones
		}
		// inv-2, part 2: the level-0 window is empty, so jump the cursor
		// to the earliest occupied slot of the lowest non-empty level and
		// cascade it. A lower level's next slot always starts before any
		// higher level's (its buckets subdivide the region the higher
		// slot has yet to reach), so scanning upward finds the true next.
		jumped := false
		for l := 1; l < numLevels; l++ {
			shift := uint(l) * levelBits
			d := (w.base >> shift) & slotMask
			m := w.level[l].occupied &^ (1<<uint(d+1) - 1)
			if m == 0 {
				continue
			}
			k := int64(bits.TrailingZeros64(m))
			span := int64(1) << (shift + levelBits)
			start := w.base&^(span-1) | k<<shift
			if start > limit {
				return false
			}
			w.base = start
			w.drain(e, l, int(k))
			jumped = true
			break
		}
		if jumped {
			continue
		}
		// Wheel exhausted: rebase onto the overflow chain if it holds
		// anything (Forever timers, multi-year delays).
		if w.overflow != nil {
			if w.overflowMin > limit {
				return false
			}
			w.rebase(e)
			continue
		}
		return false
	}
}

// drain cascades bucket (l, s) into lower levels (or the due chain),
// reclaiming tombstones on the way. Every event re-places strictly below
// level l because its granule now shares digit l with the cursor.
func (w *wheel) drain(e *Engine, l, s int) {
	chain := w.take(l, s)
	for chain != nil {
		ev := chain
		chain = chain.next
		if ev.state < 0 {
			e.reclaim(ev)
			continue
		}
		w.place(e, ev)
	}
}

// rebase moves the cursor to the overflow chain's earliest granule and
// re-places the chain; events still beyond the new horizon re-overflow
// (place retracks overflowMin).
func (w *wheel) rebase(e *Engine) {
	if w.overflowMin > w.base {
		w.base = w.overflowMin
	}
	chain := w.overflow
	w.overflow = nil
	for chain != nil {
		ev := chain
		chain = chain.next
		if ev.state < 0 {
			e.reclaim(ev)
			continue
		}
		w.place(e, ev)
	}
}

// mergeSortEvents sorts a bucket chain by (at, seq) — bottom-up merge
// sort on the links themselves: O(n log n), no allocation, no recursion,
// so a ten-thousand-event storm bucket sorts without growing the stack.
func mergeSortEvents(list *Event) *Event {
	if list == nil || list.next == nil {
		return list
	}
	k := 1
	for {
		p := list
		list = nil
		var tail *Event
		merges := 0
		for p != nil {
			merges++
			q := p
			psize := 0
			for i := 0; i < k && q != nil; i++ {
				q = q.next
				psize++
			}
			qsize := k
			for psize > 0 || (qsize > 0 && q != nil) {
				var ev *Event
				switch {
				case psize == 0:
					ev = q
					q = q.next
					qsize--
				case qsize == 0 || q == nil:
					ev = p
					p = p.next
					psize--
				case eventLess(q, p):
					ev = q
					q = q.next
					qsize--
				default:
					ev = p
					p = p.next
					psize--
				}
				if tail != nil {
					tail.next = ev
				} else {
					list = ev
				}
				tail = ev
			}
			p = q
		}
		tail.next = nil
		if merges <= 1 {
			return list
		}
		k *= 2
	}
}
