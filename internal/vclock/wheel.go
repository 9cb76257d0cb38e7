package vclock

import "math/bits"

// Hierarchical timing wheel (Varghese–Lauck scheme 6/7): the pending-
// event set of every Virtual clock; callers hold the clock mutex.
// Virtual time is handled as an int64 offset in nanoseconds from the
// clock's base instant (event.atNS). The wheel has wheelLevels levels
// of wheelSlots slots; a level-l slot spans 2^(wheelSlotBits·l) ns, so
// level 0 resolves single nanoseconds and the whole wheel covers
// 2^48 ns ≈ 78 hours ahead of the current time.
// Events past that horizon sit in an unsorted overflow list and are
// re-filed when the wheel reaches them.
//
// Each slot is an intrusive doubly-linked list threaded through the
// pooled event records (event.next/prev), so post, stop, and cascade
// move pointers and never allocate. A level-0 slot holds exactly one
// instant (1 ns wide) and is kept ordered by seq on insert — appending
// at the tail is the common case because seq grows monotonically —
// which is what preserves the engine's deterministic (atNS, seq) fire
// order. Higher-level slots are unordered; order is restored when their
// contents cascade down into level 0.
const (
	wheelSlotBits = 8
	wheelSlots    = 1 << wheelSlotBits // 256 slots per level
	wheelMask     = wheelSlots - 1
	wheelLevels   = 6
	wheelSpanBits = wheelLevels * wheelSlotBits // 48
	wheelSpan     = int64(1) << wheelSpanBits   // ≈ 78 h of lookahead
	wheelWords    = wheelSlots / 64             // occupancy bitmap words per level

	// overflowSlot marks an event parked on the overflow list.
	overflowSlot = int32(wheelLevels << wheelSlotBits)
	// pastSlot marks an event on the behind-cursor heap (see
	// wheelSched.past).
	pastSlot = overflowSlot + 1
)

// wheelList is one slot's intrusive event list.
type wheelList struct {
	head, tail *event
}

func (l *wheelList) append(ev *event) {
	ev.prev = l.tail
	ev.next = nil
	if l.tail != nil {
		l.tail.next = ev
	} else {
		l.head = ev
	}
	l.tail = ev
}

// insertBySeq files ev into a level-0 slot keeping seq order. All
// events in a level-0 slot share one firing instant, so seq order is
// full (atNS, seq) order. Scanning from the tail makes the monotone
// common case (fresh events have the largest seq) O(1).
func (l *wheelList) insertBySeq(ev *event) {
	p := l.tail
	for p != nil && p.seq > ev.seq {
		p = p.prev
	}
	if p == nil {
		ev.prev = nil
		ev.next = l.head
		if l.head != nil {
			l.head.prev = ev
		} else {
			l.tail = ev
		}
		l.head = ev
		return
	}
	ev.prev = p
	ev.next = p.next
	if p.next != nil {
		p.next.prev = ev
	} else {
		l.tail = ev
	}
	p.next = ev
}

func (l *wheelList) unlink(ev *event) {
	if ev.prev != nil {
		ev.prev.next = ev.next
	} else {
		l.head = ev.next
	}
	if ev.next != nil {
		ev.next.prev = ev.prev
	} else {
		l.tail = ev.prev
	}
	ev.next, ev.prev = nil, nil
}

type wheelSched struct {
	// cur is the wheel's notion of "now": the virtual-time offset (ns
	// from the clock base) it has advanced to. Invariants: cur never
	// exceeds the firing time of any queued event, and it never sits
	// strictly inside the time window of an occupied level≥1 slot — pop
	// cascades a slot the moment cur reaches its window start.
	cur int64
	n   int

	slots [wheelLevels][wheelSlots]wheelList
	occ   [wheelLevels][wheelWords]uint64 // per-level slot occupancy bitmaps

	// over holds events beyond the wheel horizon, unsorted. overMin
	// tracks the minimum atNS on the list; removals may leave it stale
	// low, which is harmless — a stale trigger just makes pop rescan
	// the list one time and recompute the true minimum.
	over    wheelList
	overMin int64

	// past holds events filed behind cur, ordered (atNS, seq). A lone
	// clock never produces them — cur trails the firing point — but a
	// sharded clock can: pop advances cur to the next local event, the
	// horizon gate holds that event aside, and the window merge then
	// delivers cross-shard records at earlier instants (≥ the clock's
	// now, < cur). Every past event is strictly earlier than every
	// wheel-resident event (cur never exceeds a queued wheel event's
	// firing time), so pop drains this heap first without moving cur.
	past eventHeap
}

func (w *wheelSched) size() int { return w.n }

func (w *wheelSched) push(ev *event) {
	ev.index = 0 // queued; stopEvent keys off index < 0
	w.n++
	w.file(ev)
}

// file places ev by its delta from cur: the level is the position of
// the delta's top bit divided down by wheelSlotBits, the slot is the
// corresponding bit field of the absolute firing time. A negative
// delta — a cross-shard record merged after cur popped ahead of the
// clock's now — goes to the past heap instead; the slot math assumes
// delta ≥ 0.
func (w *wheelSched) file(ev *event) {
	delta := ev.atNS - w.cur
	if delta < 0 {
		ev.slot = pastSlot
		w.past.push(ev)
		return
	}
	if delta >= wheelSpan {
		ev.slot = overflowSlot
		if w.over.head == nil || ev.atNS < w.overMin {
			w.overMin = ev.atNS
		}
		w.over.append(ev)
		return
	}
	level := 0
	if delta > 0 {
		level = (bits.Len64(uint64(delta)) - 1) / wheelSlotBits
	}
	s := int(uint64(ev.atNS)>>(uint(level)*wheelSlotBits)) & wheelMask
	ev.slot = int32(level<<wheelSlotBits | s)
	w.occ[level][s>>6] |= 1 << (uint(s) & 63)
	if level == 0 {
		w.slots[0][s].insertBySeq(ev)
	} else {
		w.slots[level][s].append(ev)
	}
}

// remove unlinks a queued event in O(1) — this is what makes Stop on a
// pending timer constant-time regardless of how many are queued.
func (w *wheelSched) remove(ev *event) {
	if ev.slot == pastSlot {
		w.past.remove(ev.index)
	} else if ev.slot == overflowSlot {
		w.over.unlink(ev)
		// overMin may now be stale low; see the field comment.
	} else {
		level := int(ev.slot) >> wheelSlotBits
		s := int(ev.slot) & wheelMask
		l := &w.slots[level][s]
		l.unlink(ev)
		if l.head == nil {
			w.occ[level][s>>6] &^= 1 << (uint(s) & 63)
		}
	}
	ev.slot = -1
	ev.index = -1
	w.n--
}

// nextOcc finds the first occupied slot at or circularly after from,
// scanning the occupancy bitmap.
func nextOcc(bm *[wheelWords]uint64, from int) (int, bool) {
	wi := from >> 6
	off := uint(from) & 63
	if word := bm[wi] >> off << off; word != 0 {
		return wi<<6 + bits.TrailingZeros64(word), true
	}
	for k := 1; k <= wheelWords; k++ {
		i := (wi + k) & (wheelWords - 1)
		if bm[i] != 0 {
			return i<<6 + bits.TrailingZeros64(bm[i]), true
		}
	}
	return 0, false
}

// minLevel0 returns the earliest level-0 firing time and its slot.
// Level-0 slots within the live window [cur, cur+256) map uniquely:
// slot index == firing time mod 256, and a slot numerically equal to
// cur's own position can only hold atNS == cur (an event 256 ns out
// would have delta 256 and sit on level 1), so distance 0 is exact.
func (w *wheelSched) minLevel0() (int64, int, bool) {
	idx := int(uint64(w.cur)) & wheelMask
	s, ok := nextOcc(&w.occ[0], idx)
	if !ok {
		return 0, 0, false
	}
	return w.cur + int64((s-idx)&wheelMask), s, true
}

// minHigher returns the earliest window start among occupied level≥1
// slots, with the level and slot index; level < 0 means none.
//
// The subtle case is an occupied slot whose index equals cur's own
// position at that level. If cur sits exactly on the slot's window
// start, the contents belong to the current revolution and must
// cascade now (an event a full revolution out would have had an insert
// delta ≥ 2^(8(l+1)), which files one level up — impossible here). If
// cur is strictly inside the window, the slot was already cascaded
// when cur crossed its start, so anything in it now was inserted later
// with a carry out of the low bits: it is one revolution ahead, and
// the next-earliest occupied slot after it (or itself at distance 256)
// is the real candidate.
func (w *wheelSched) minHigher() (int64, int, int) {
	tH, lH, sH := int64(0), -1, 0
	for level := 1; level < wheelLevels; level++ {
		shift := uint(level) * wheelSlotBits
		idx := int(uint64(w.cur)>>shift) & wheelMask
		s, ok := nextOcc(&w.occ[level], idx)
		if !ok {
			continue
		}
		dist := int64((s - idx) & wheelMask)
		if s == idx && w.cur&(int64(1)<<shift-1) != 0 {
			s2, _ := nextOcc(&w.occ[level], (idx+1)&wheelMask)
			if s2 == idx {
				dist = wheelSlots
			} else {
				s = s2
				dist = int64((s2 - idx) & wheelMask)
			}
		}
		start := (w.cur>>shift + dist) << shift
		if lH < 0 || start < tH {
			tH, lH, sH = start, level, s
		}
	}
	return tH, lH, sH
}

// pop removes and returns the (atNS, seq)-minimal event. It advances cur
// by jumps: cascade the earliest occupied higher-level slot whenever
// its window start is at or before the earliest level-0 event (so
// same-instant events meet in a seq-ordered level-0 slot before any of
// them fires), re-file the overflow list whenever its minimum is due,
// and otherwise fire the head of the earliest level-0 slot.
func (w *wheelSched) pop() *event {
	if len(w.past) > 0 {
		// Behind-cursor records precede everything on the wheel; cur
		// stays put so wheel-resident deltas keep their meaning.
		ev := w.past.pop()
		ev.slot = -1
		w.n--
		return ev
	}
	for {
		t0, s0, ok0 := w.minLevel0()
		tH, lH, sH := w.minHigher()
		if w.over.head != nil {
			m := w.overMin
			if (!ok0 || m <= t0) && (lH < 0 || m <= tH) {
				if m > w.cur {
					w.cur = m
				}
				w.refileOverflow()
				continue
			}
		}
		if lH >= 0 && (!ok0 || tH <= t0) {
			w.cur = tH
			w.cascade(lH, sH)
			continue
		}
		// pop is only called with n > 0, and every queued event is
		// reachable by one of the three scans, so ok0 holds here.
		l := &w.slots[0][s0]
		ev := l.head
		l.unlink(ev)
		if l.head == nil {
			w.occ[0][s0>>6] &^= 1 << (uint(s0) & 63)
		}
		w.cur = t0
		ev.slot = -1
		ev.index = -1
		w.n--
		return ev
	}
}

// cascade empties one level≥1 slot whose window start cur has reached,
// re-filing each event by its remaining delta. Every event lands at a
// strictly lower level because its delta is now below the slot width.
func (w *wheelSched) cascade(level, s int) {
	l := &w.slots[level][s]
	ev := l.head
	*l = wheelList{}
	w.occ[level][s>>6] &^= 1 << (uint(s) & 63)
	for ev != nil {
		next := ev.next
		ev.next, ev.prev = nil, nil
		w.file(ev)
		ev = next
	}
}

// refileOverflow moves every overflow event now within the wheel
// horizon onto the wheel and recomputes overMin for the rest. After a
// pass, anything still on the list is at least wheelSpan past cur, so
// overMin cannot re-trigger before the wheel has work to do.
func (w *wheelSched) refileOverflow() {
	ev := w.over.head
	w.over = wheelList{}
	w.overMin = 0
	for ev != nil {
		next := ev.next
		ev.next, ev.prev = nil, nil
		if ev.atNS-w.cur < wheelSpan {
			w.file(ev)
		} else {
			ev.slot = overflowSlot
			if w.over.head == nil || ev.atNS < w.overMin {
				w.overMin = ev.atNS
			}
			w.over.append(ev)
		}
		ev = next
	}
}
