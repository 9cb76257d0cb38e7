package vclock

import (
	"fmt"
	"testing"
	"time"
)

// TestWheelMatchesHeapOracle drives a wheelSched and the reference
// eventHeap with the same seeded mix of push, remove and pop, and
// requires both to pop the same (atNS, seq) sequence. Firing times are
// drawn relative to the wheel's cursor so that every wheel level, the
// overflow list past the 2^48 ns horizon, same-instant seq ties, and
// pushes behind the cursor (the past heap, which only sharded clocks
// reach in a simulation) all occur; the test checks each was reached.
func TestWheelMatchesHeapOracle(t *testing.T) {
	// store maps a queued event to where the wheel filed it: its level,
	// then wheelLevels for the overflow list, then the past heap.
	store := func(ev *event) int {
		if ev.slot == pastSlot {
			return wheelLevels + 1
		}
		return int(ev.slot) >> wheelSlotBits
	}
	var reached [wheelLevels + 2]int
	ties := 0
	for seed := int64(1); seed <= 20; seed++ {
		rng := NewRand(seed)
		var w wheelSched
		var h eventHeap
		// live pairs each queued wheel record with its heap twin; pos
		// indexes live by the wheel record.
		var live [][2]*event
		pos := map[*event]int{}
		drop := func(we *event) {
			i := pos[we]
			last := len(live) - 1
			live[i] = live[last]
			pos[live[i][0]] = i
			live = live[:last]
			delete(pos, we)
		}
		var seq uint64
		var lastAt int64
		popBoth := func(op int) {
			we, he := w.pop(), h.pop()
			if we.atNS != he.atNS || we.seq != he.seq {
				t.Fatalf("seed %d op %d: wheel popped (%d,%d), heap (%d,%d)",
					seed, op, we.atNS, we.seq, he.atNS, he.seq)
			}
			if we.index != -1 || we.slot != -1 {
				t.Fatalf("seed %d op %d: popped event still marked queued (index %d, slot %d)", seed, op, we.index, we.slot)
			}
			if p := pos[we]; live[p][1] != he {
				t.Fatalf("seed %d op %d: popped records are not twins", seed, op)
			}
			drop(we)
		}
		for op := 0; op < 4000; op++ {
			switch r := rng.Intn(20); {
			case r < 12:
				var at int64
				switch k := rng.Intn(10); {
				case k == 0 && seq > 0:
					at = lastAt // same instant as the previous push
					ties++
				case k == 1 && len(live) > 0:
					// Same instant as an event queued earlier, usually
					// filed at a higher level: the two meet only once it
					// cascades into level 0.
					at = live[rng.Intn(len(live))][0].atNS
					if rng.Intn(2) == 0 {
						at = h[0].atNS // the next instant due
					}
					ties++
				case k == 2 && w.cur > 0:
					at = w.cur - 1 - rng.Int63()%w.cur // behind the cursor
				case k == 3:
					at = w.cur + wheelSpan + rng.Int63()%wheelSpan // overflow
				default:
					level := rng.Intn(wheelLevels)
					lo := int64(0)
					if level > 0 {
						lo = int64(1) << (level * wheelSlotBits)
					}
					hi := int64(1) << ((level + 1) * wheelSlotBits)
					at = w.cur + lo + rng.Int63()%(hi-lo)
				}
				lastAt = at
				seq++
				we, he := &event{atNS: at, seq: seq}, &event{atNS: at, seq: seq}
				w.push(we)
				h.push(he)
				reached[store(we)]++
				pos[we] = len(live)
				live = append(live, [2]*event{we, he})
			case r < 15 && len(live) > 0:
				pair := live[rng.Intn(len(live))]
				w.remove(pair[0])
				h.remove(pair[1].index)
				if pair[0].index != -1 || pair[0].slot != -1 {
					t.Fatalf("seed %d op %d: removed event still marked queued", seed, op)
				}
				drop(pair[0])
			case len(live) > 0:
				popBoth(op)
			}
			if w.size() != len(h) {
				t.Fatalf("seed %d op %d: wheel size %d, heap size %d", seed, op, w.size(), len(h))
			}
		}
		for op := 0; len(live) > 0; op++ {
			popBoth(-op)
		}
		if w.size() != 0 || len(h) != 0 {
			t.Fatalf("seed %d: drained to wheel %d, heap %d", seed, w.size(), len(h))
		}
	}
	for i, n := range reached {
		if n == 0 {
			t.Errorf("no push reached store %d (levels 0-%d, then overflow, then past)", i, wheelLevels-1)
		}
	}
	if ties == 0 {
		t.Error("no same-instant pushes")
	}
}

// TestWheelHeapDifferential replays a seeded random schedule of
// Post/Post2/Stop/AfterFunc/Sleep on a Virtual clock and checks it
// against a model of the clock's contract: a scheduled call fires
// exactly at its deadline unless stopped; calls fire in (deadline,
// scheduling order); Stop reports true exactly when it cancelled a call
// that had neither fired nor been stopped, including after the event
// record was recycled for a later call. The pop order of the wheel
// itself is checked against the reference heap, record for record, by
// TestWheelMatchesHeapOracle.
func TestWheelHeapDifferential(t *testing.T) {
	type call struct {
		at      time.Time
		stop    func() bool
		fired   bool
		stopped bool
	}
	for seed := int64(1); seed <= 5; seed++ {
		v := New()
		var calls []*call
		var fired []int // call indices in firing order
		fire := func(i int) {
			c := calls[i]
			if c.fired || c.stopped {
				t.Fatalf("seed %d: call %d fired again or after Stop", seed, i)
			}
			if !v.Now().Equal(c.at) {
				t.Fatalf("seed %d: call %d fired at %v, want %v", seed, i, v.Now(), c.at)
			}
			c.fired = true
			fired = append(fired, i)
		}
		post2 := func(_, b any) { fire(b.(int)) }
		stop := func(i int) {
			c := calls[i]
			want := !c.fired && !c.stopped
			if got := c.stop(); got != want {
				t.Fatalf("seed %d: Stop of call %d = %v, want %v (fired %v, stopped %v)", seed, i, got, want, c.fired, c.stopped)
			}
			if want {
				c.stopped = true
			}
		}
		v.Run(func() {
			rng := NewRand(seed)
			var pendingIDs, timerIDs []int
			// Durations spanning every wheel level plus the overflow
			// list, with a bias toward small deltas so plenty of events
			// collide on the same instants.
			durs := []time.Duration{
				0, 0, 1, 3, 250 * time.Nanosecond, 10 * time.Microsecond,
				3 * time.Millisecond, 800 * time.Millisecond, 40 * time.Second,
				2 * time.Hour, 100 * time.Hour,
			}
			for n := 0; n < 3000; n++ {
				d := durs[rng.Intn(len(durs))]
				i := len(calls)
				c := &call{at: v.Now().Add(d)}
				switch rng.Intn(10) {
				case 0, 1, 2, 3:
					calls = append(calls, c)
					c.stop = v.Post(d, func() { fire(i) }).Stop
					pendingIDs = append(pendingIDs, i)
				case 4, 5:
					calls = append(calls, c)
					c.stop = v.Post2(d, post2, nil, i).Stop
					pendingIDs = append(pendingIDs, i)
				case 6:
					calls = append(calls, c)
					c.stop = v.AfterFunc(d, func() { fire(i) }).Stop
					timerIDs = append(timerIDs, i)
				case 7:
					if len(pendingIDs) > 0 {
						stop(pendingIDs[rng.Intn(len(pendingIDs))])
					}
				case 8:
					if len(timerIDs) > 0 {
						stop(timerIDs[rng.Intn(len(timerIDs))])
					}
				case 9:
					v.Sleep(time.Duration(rng.Intn(int(5 * time.Second))))
				}
			}
			v.Sleep(200 * time.Hour) // drain everything, overflow included
		})
		for i, c := range calls {
			if !c.fired && !c.stopped {
				t.Fatalf("seed %d: call %d neither fired nor stopped", seed, i)
			}
		}
		for k := 1; k < len(fired); k++ {
			a, b := calls[fired[k-1]], calls[fired[k]]
			if b.at.Before(a.at) || (b.at.Equal(a.at) && fired[k] < fired[k-1]) {
				t.Fatalf("seed %d: call %d (%v) fired after call %d (%v)", seed, fired[k], b.at, fired[k-1], a.at)
			}
		}
	}
}

// TestWheelCancelDuringCascade stops events that share a higher-level
// slot with the timer that fires first at the same instant: the Stop
// runs after the slot has cascaded into level 0, so it exercises
// unlinking freshly re-filed events mid-advance.
func TestWheelCancelDuringCascade(t *testing.T) {
	v := New()
	var fired []string
	v.Run(func() {
		var b, c, d Pending
		// All four land 10ms out: level 3 of the wheel, same slot.
		v.Post(10*time.Millisecond, func() {
			fired = append(fired, "a")
			b.Stop() // same instant, later seq: already in level 0
			d.Stop() // 1ns later: level-0 neighbour slot
		})
		b = v.Post(10*time.Millisecond, func() { fired = append(fired, "b") })
		c = v.Post(10*time.Millisecond, func() { fired = append(fired, "c") })
		d = v.Post(10*time.Millisecond+time.Nanosecond, func() { fired = append(fired, "d") })
		v.Sleep(20 * time.Millisecond)
		_ = c
	})
	if got := fmt.Sprint(fired); got != "[a c]" {
		t.Fatalf("fired %v, want [a c]", fired)
	}
}

// TestWheelOverflowTimers checks timers beyond the 2^48 ns (~78h) wheel
// horizon: they park on the overflow list, re-file when due, interleave
// correctly with near timers, and can be stopped while parked.
func TestWheelOverflowTimers(t *testing.T) {
	v := New()
	var fired []string
	v.Run(func() {
		v.Post(200*time.Hour, func() { fired = append(fired, "far2") })
		v.Post(100*time.Hour, func() { fired = append(fired, "far1") })
		drop := v.Post(150*time.Hour, func() { fired = append(fired, "dropped") })
		v.Post(time.Second, func() { fired = append(fired, "near") })
		if !drop.Stop() {
			t.Error("Stop on parked overflow timer reported false")
		}
		start := v.Now()
		v.Sleep(300 * time.Hour)
		if got := v.Since(start); got != 300*time.Hour {
			t.Errorf("slept %v, want 300h", got)
		}
	})
	if got := fmt.Sprint(fired); got != "[near far1 far2]" {
		t.Fatalf("fired %v, want [near far1 far2]", fired)
	}
}

// TestWheelSameInstantAcrossLevels schedules events for one shared
// instant from different current times, so they enter the wheel at
// different levels (and one from the overflow list) and only meet in a
// level-0 slot after cascading. They must still fire in seq order.
func TestWheelSameInstantAcrossLevels(t *testing.T) {
	v := New()
	var fired []int
	v.Run(func() {
		target := 90 * time.Hour // beyond the horizon at t=0
		start := v.Now()
		until := func() time.Duration { return target - v.Since(start) }
		v.Post(until(), func() { fired = append(fired, 0) }) // overflow
		v.Sleep(40 * time.Hour)
		v.Post(until(), func() { fired = append(fired, 1) }) // high level
		v.Sleep(50*time.Hour - 200*time.Millisecond)
		v.Post(until(), func() { fired = append(fired, 2) }) // mid level
		v.Sleep(200*time.Millisecond - 30*time.Microsecond)
		v.Post(until(), func() { fired = append(fired, 3) }) // low level
		v.Sleep(30 * time.Microsecond)
		v.Post(0, func() { fired = append(fired, 4) }) // level 0 direct
		v.Sleep(time.Second)
	})
	if got := fmt.Sprint(fired); got != "[0 1 2 3 4]" {
		t.Fatalf("fired %v, want [0 1 2 3 4]", fired)
	}
}

// TestWheelRevolutionAmbiguity pins the carry case: an event whose
// delta keeps it on level l but whose absolute slot index wraps to the
// slot the wheel's current time occupies. The wheel must read that slot
// as one revolution ahead — not cascade it early and loop — and must
// not let it shadow nearer slots at the same level.
func TestWheelRevolutionAmbiguity(t *testing.T) {
	v := New()
	var fired []string
	v.Run(func() {
		// Put now at a position with nonzero low bits on several levels.
		v.Sleep(time.Duration(0x1F3)) // cur = 0x1F3
		// delta 0xFFFF stays on level 1; 0x1F3+0xFFFF = 0x101F2, whose
		// level-1 slot index 0x01 equals cur's own (0x1F3>>8 = 0x01).
		v.Post(time.Duration(0xFFFF), func() { fired = append(fired, "wrap") })
		// A nearer level-1 event in a later slot must still fire first.
		v.Post(time.Duration(0x300), func() { fired = append(fired, "near") })
		v.Sleep(time.Duration(0x20000))
	})
	if got := fmt.Sprint(fired); got != "[near wrap]" {
		t.Fatalf("fired %v, want [near wrap]", fired)
	}
}

// TestWheelPendingReuseGuard is the generation-guard ABA check: a stale
// Pending whose event record was recycled for a new timer must not
// cancel the new timer.
func TestWheelPendingReuseGuard(t *testing.T) {
	v := New()
	v.Run(func() {
		fired := false
		stale := v.Post(time.Millisecond, func() {})
		v.Sleep(2 * time.Millisecond) // fires; event returns to freelist
		fresh := v.Post(time.Millisecond, func() { fired = true })
		if stale.Stop() {
			t.Error("stale handle stopped a recycled event")
		}
		v.Sleep(2 * time.Millisecond)
		if !fired {
			t.Error("recycled event did not fire")
		}
		_ = fresh
	})
}
