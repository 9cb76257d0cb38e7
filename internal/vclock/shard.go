package vclock

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"
)

// ShardGroup runs one simulation across several Virtual clocks — the
// conservative (YAWNS-style) parallel discrete-event engine. Each shard
// owns a clock and drains its scheduler independently up to a horizon;
// the coordinator waits until every shard has blocked, computes the next
// safe window
//
//	B = M + L
//
// where M is the globally earliest pending instant (including records in
// flight) and L the lookahead (the minimum cross-shard delivery delay),
// merges the window's cross-shard records into their destination
// schedulers in canonical (at, originShard, originSeq) order, and
// releases the shards with horizon B. A record sent at time t carries a
// delay ≥ L, so it lands at t+L ≥ M+L = B — never inside a window
// already being executed. That is the whole safety argument: no shard
// ever fires an event that a not-yet-delivered record could precede, so
// the sharded schedule is a deterministic replay.
//
// With no cross-shard edges the lookahead is infinite (the default):
// horizons stay unbounded, shards run fully concurrently with no
// barriers, and Send2 is forbidden. That degenerate mode is what the
// service-sharded load engine uses; the windowed mode serves
// partitioned netem topologies.
//
// The barrier hot path — Send2, the record merge, block/resume — is
// allocation-free in steady state: records accumulate in reusable
// per-shard outboxes, the merge sorts through a persistent sorter, and
// destination events come from each clock's freelist.
type ShardGroup struct {
	shards    []*Virtual
	lookahead int64 // ns; < 0 means infinite (no cross-shard edges)

	msgCh    chan shardMsg
	resumeCh []chan int64

	// Per-origin outboxes: a shard's goroutines append records during its
	// window; the coordinator swaps them out at the barrier. One mutex per
	// origin keeps senders on different shards uncontended.
	outMu  []sync.Mutex
	out    [][]xrec
	outSeq []uint64

	sorter xrecSorter // persistent merge scratch (reused every window)
	ran    bool
}

// xrec is one cross-shard delivery record. origin/seq are the canonical
// tiebreak for records landing at the same instant: every record is
// uniquely identified by (origin, seq), so the merge order is total.
type xrec struct {
	atNS   int64
	origin int32
	to     int32
	seq    uint64
	fn2    func(a, b any)
	a, b   any
}

// xrecSorter sorts records in canonical (atNS, origin, seq) order. A
// persistent struct with pointer-receiver methods so sort.Sort boxes no
// slice header per window.
type xrecSorter struct{ recs []xrec }

func (s *xrecSorter) Len() int      { return len(s.recs) }
func (s *xrecSorter) Swap(i, j int) { s.recs[i], s.recs[j] = s.recs[j], s.recs[i] }
func (s *xrecSorter) Less(i, j int) bool {
	a, b := &s.recs[i], &s.recs[j]
	if a.atNS != b.atNS {
		return a.atNS < b.atNS
	}
	if a.origin != b.origin {
		return a.origin < b.origin
	}
	return a.seq < b.seq
}

// shardMsg is one shard→coordinator state transition.
type shardMsg struct {
	shard  int32
	done   bool  // the shard's main returned; its clock is stopped
	empty  bool  // blocked with no pending events at all
	nextNS int64 // earliest pending instant when blocked non-empty
}

// shard coordinator states.
const (
	stRunning = iota
	stBlocked
	stDone
)

// NewShardGroup returns a group of n fresh Virtual clocks (starting at
// Epoch) with infinite lookahead.
// Topologies with cross-shard edges must SetLookahead before Run.
func NewShardGroup(n int) *ShardGroup {
	if n < 1 {
		panic("vclock: ShardGroup needs at least one shard")
	}
	g := &ShardGroup{
		shards:    make([]*Virtual, n),
		lookahead: -1,
		msgCh:     make(chan shardMsg, n),
		resumeCh:  make([]chan int64, n),
		outMu:     make([]sync.Mutex, n),
		out:       make([][]xrec, n),
		outSeq:    make([]uint64, n),
	}
	for i := range g.shards {
		g.shards[i] = New()
		g.resumeCh[i] = make(chan int64, 1)
	}
	return g
}

// Shards returns the number of shards.
func (g *ShardGroup) Shards() int { return len(g.shards) }

// Shard returns shard i's clock.
func (g *ShardGroup) Shard(i int) *Virtual { return g.shards[i] }

// Lookahead returns the configured lookahead, or a negative duration
// when infinite.
func (g *ShardGroup) Lookahead() time.Duration { return time.Duration(g.lookahead) }

// SetLookahead declares the minimum cross-shard delivery delay — the
// smallest latency of any link whose endpoints live on different shards.
// It must be positive (zero-latency cross-shard edges admit no safe
// window) and set before Run.
func (g *ShardGroup) SetLookahead(d time.Duration) {
	if d <= 0 {
		panic("vclock: shard lookahead must be positive")
	}
	if g.ran {
		panic("vclock: SetLookahead after Run")
	}
	g.lookahead = int64(d)
}

// Send2 queues a cross-shard delivery: fn2(a, b) fires on shard to's
// clock after d of virtual time, where d must be at least the lookahead.
// Call it only from goroutines of shard from, during from's window. The
// record is merged into the destination at the next barrier; with a
// top-level fn2 and pointer operands the steady-state call allocates
// nothing.
func (g *ShardGroup) Send2(from, to int, d time.Duration, fn2 func(a, b any), a, b any) {
	if g.lookahead < 0 {
		panic("vclock: cross-shard Send2 with infinite lookahead (no cross-shard edges declared)")
	}
	if int64(d) < g.lookahead {
		panic(fmt.Sprintf("vclock: cross-shard delay %v below lookahead %v", d, time.Duration(g.lookahead)))
	}
	atNS := g.shards[from].offNS.Load() + int64(d)
	g.outMu[from].Lock()
	g.outSeq[from]++
	g.out[from] = append(g.out[from], xrec{atNS: atNS, origin: int32(from), to: int32(to), seq: g.outSeq[from], fn2: fn2, a: a, b: b})
	g.outMu[from].Unlock()
}

// Run starts main(i) on every shard's clock and coordinates windows
// until every main has returned. Like Virtual.Run, a group runs once;
// goroutines of a shard that are still parked when its main returns stay
// parked. Run panics on global deadlock: every live shard parked with no
// pending events and no records in flight.
func (g *ShardGroup) Run(main func(shard int)) {
	if g.ran {
		panic("vclock: ShardGroup ran already")
	}
	g.ran = true
	n := len(g.shards)
	states := make([]int8, n)  // all stRunning
	nexts := make([]int64, n)  // earliest pending instant per blocked shard
	empties := make([]bool, n) // blocked-with-nothing flags

	for i := range g.shards {
		i := i
		sh := g.shards[i]
		if g.lookahead >= 0 {
			// Windowed mode bootstraps with a zero horizon: every shard
			// blocks on its very first event, and the first barrier
			// computes the first safe window. No goroutines exist yet, so
			// the bare write is unobserved.
			sh.horizonNS = 0
		}
		sh.setOnBlock(func(nextNS int64, empty bool) {
			g.msgCh <- shardMsg{shard: int32(i), nextNS: nextNS, empty: empty}
		})
		// Driver: resumes the shard after each barrier. The blocked shard
		// is quiescent, so advancing from a dedicated goroutine is safe
		// and keeps the coordinator loop itself off every clock.
		go func() {
			for h := range g.resumeCh[i] {
				sh.resume(h)
			}
		}()
		go func() {
			sh.Run(func() { main(i) })
			g.msgCh <- shardMsg{shard: int32(i), done: true}
		}()
	}
	defer func() {
		for i := range g.resumeCh {
			close(g.resumeCh[i])
		}
	}()

	running, done := n, 0
	for done < n {
		m := <-g.msgCh
		if m.done {
			states[m.shard] = stDone
			done++
		} else {
			states[m.shard] = stBlocked
			nexts[m.shard] = m.nextNS
			empties[m.shard] = m.empty
		}
		running--
		if running > 0 || done == n {
			continue
		}
		running += g.barrier(states, nexts, empties)
	}
}

// barrier runs one window boundary: flush outboxes, compute the next
// safe horizon, merge records canonically, release every blocked shard.
// It returns the number of shards released. The caller has established
// that no shard is running, so all clocks are quiescent.
func (g *ShardGroup) barrier(states []int8, nexts []int64, empties []bool) int {
	recs := g.sorter.recs[:0]
	for i := range g.out {
		g.outMu[i].Lock()
		recs = append(recs, g.out[i]...)
		for j := range g.out[i] {
			g.out[i][j] = xrec{} // drop payload references
		}
		g.out[i] = g.out[i][:0]
		g.outMu[i].Unlock()
	}
	g.sorter.recs = recs

	m := int64(math.MaxInt64)
	blocked := 0
	for i, st := range states {
		if st != stBlocked {
			continue
		}
		blocked++
		if !empties[i] && nexts[i] < m {
			m = nexts[i]
		}
	}
	for i := range recs {
		if recs[i].atNS < m {
			m = recs[i].atNS
		}
	}
	if m == math.MaxInt64 {
		// Every live shard is parked with nothing pending anywhere: the
		// sharded analogue of the single-clock deadlock panic.
		panic(fmt.Sprintf("vclock: sharded deadlock: %d shard(s) parked with no events and no cross-shard records in flight", blocked))
	}
	if g.lookahead < 0 {
		// Infinite lookahead means no cross-shard edges: a blocked shard
		// can never be fed again, and pending events on one shard cannot
		// unpark another. Reaching here with events pending is a shard
		// whose own goroutines deadlocked.
		panic("vclock: shard parked forever: independent shards cannot wake each other (infinite lookahead)")
	}
	b := m + g.lookahead

	if len(recs) > 0 {
		sort.Sort(&g.sorter)
		for i := range recs {
			r := &recs[i]
			g.shards[r.to].postAbs(r.atNS, r.fn2, r.a, r.b)
			r.fn2, r.a, r.b = nil, nil, nil
		}
	}

	released := 0
	for i, st := range states {
		if st != stBlocked {
			continue
		}
		states[i] = stRunning
		released++
		g.resumeCh[i] <- b
	}
	return released
}
