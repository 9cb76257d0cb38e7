package vclock

import (
	"testing"
	"time"
)

// BenchmarkTimerThroughput measures raw event-scheduling throughput —
// the emulator's hot loop.
func BenchmarkTimerThroughput(b *testing.B) {
	v := New()
	v.Run(func() {
		for i := 0; i < b.N; i++ {
			v.Sleep(time.Millisecond)
		}
	})
}

// BenchmarkMailboxRoundTrip measures one send/recv pair between two
// tracked goroutines.
func BenchmarkMailboxRoundTrip(b *testing.B) {
	v := New()
	v.Run(func() {
		ping := NewMailbox[int](v)
		pong := NewMailbox[int](v)
		v.Go(func() {
			for {
				x, ok := ping.Recv()
				if !ok {
					return
				}
				pong.Send(x)
			}
		})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ping.Send(i)
			pong.Recv()
		}
		b.StopTimer()
		ping.Close()
	})
}

// benchNop is a top-level callback so posting it allocates nothing.
func benchNop() {}

// millionTimerDurs spreads a pending-timer ballast across the upper
// wheel levels: the idle-flow, FlowMemory-expiry, and health-probe
// timers a million-flow run keeps armed for minutes to an hour.
var millionTimerDurs = [8]time.Duration{
	2 * time.Minute, 5 * time.Minute, 11 * time.Minute, 17 * time.Minute,
	27 * time.Minute, 40 * time.Minute, 52 * time.Minute, time.Hour,
}

// BenchmarkMillionTimers measures the timing wheel at a 1M-pending-timer
// population — the shape of a million-flow run where every flow holds
// retransmit/idle/expiry timers. post-stop is the steady-state churn
// path: schedule a short retransmit-scale timer and cancel it (the ack
// arrived) under the full idle ballast, two O(1) list operations. Must
// be 0 allocs/op. drain fires timers while re-arming each one, so it
// pays the wheel's cascading costs.
func BenchmarkMillionTimers(b *testing.B) {
	const pending = 1 << 20
	b.Run("wheel/post-stop", func(b *testing.B) {
		v := New()
		v.Run(func() {
			ring := make([]Pending, pending)
			for i := range ring {
				ring[i] = v.Post(millionTimerDurs[i&7]+time.Duration(i), benchNop)
			}
			shortDurs := [4]time.Duration{300 * time.Microsecond, 2 * time.Millisecond, 20 * time.Millisecond, 500 * time.Millisecond}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := v.Post(shortDurs[i&3]+time.Duration(i&0xFFFF), benchNop)
				p.Stop()
			}
		})
	})
	b.Run("wheel/drain", func(b *testing.B) {
		v := New()
		v.Run(func() {
			// 1M mostly-idle timers sit as ballast across all levels
			// while a 64k active set fires and re-arms at short
			// intervals: each firing pops, cascades, and re-posts, with
			// the full population resident.
			ring := make([]Pending, pending)
			for i := range ring {
				ring[i] = v.Post(millionTimerDurs[i&7]+time.Duration(i), benchNop)
			}
			shortDurs := [4]time.Duration{time.Microsecond, 7 * time.Microsecond, 60 * time.Microsecond, 500 * time.Microsecond}
			rearm := func(a, _ any) {
				s := a.(*drainState)
				s.v.Post2(shortDurs[s.i&3], s.fn, a, nil)
				s.i++
			}
			st := &drainState{v: v, fn: rearm}
			for i := 0; i < 1<<16; i++ {
				v.Post2(shortDurs[i&3]+time.Duration(i), rearm, st, nil)
			}
			b.ReportAllocs()
			b.ResetTimer()
			target := st.i + b.N
			for st.i < target {
				v.Sleep(10 * time.Microsecond)
			}
		})
	})
}

// drainState carries the re-arming loop of BenchmarkMillionTimers'
// drain variant without per-firing closures.
type drainState struct {
	v  *Virtual
	fn func(a, b any)
	i  int
}

// BenchmarkParallelSleepers measures the scheduler with many goroutines
// parked at once (the shape of a testbed run).
func BenchmarkParallelSleepers(b *testing.B) {
	for i := 0; i < b.N; i++ {
		v := New()
		v.Run(func() {
			var g Group
			for j := 0; j < 100; j++ {
				j := j
				g.Go(v, func() {
					v.Sleep(time.Duration(j) * time.Millisecond)
				})
			}
			g.Wait(v)
		})
	}
}
