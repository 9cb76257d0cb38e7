package netem

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/c3lab/transparentedge/internal/vclock"
)

// shardPair builds the partitioned echo topology a --- r --- b with a
// 1ms edge link on a's side and a 2ms link on b's side, on the given
// clock.
func shardPair(clk vclock.Clock) (*Network, *Host, *Host, *Router) {
	n := NewNetwork(clk, 1)
	a := n.NewHost("a", ParseIP("10.0.0.1"))
	b := n.NewHost("b", ParseIP("10.0.0.2"))
	r := NewRouter(n, "r", 2)
	n.Connect(a.NIC(), r.Port(0), LinkConfig{Latency: time.Millisecond})
	n.Connect(b.NIC(), r.Port(1), LinkConfig{Latency: 2 * time.Millisecond})
	r.AddRoute(a.IP(), r.Port(0))
	r.AddRoute(b.IP(), r.Port(1))
	return n, a, b, r
}

// shardEchoTrace is the per-side event log of one echo exchange: each
// entry is label@virtual-offset, so two runs match only if every step
// lands at the identical virtual instant.
type shardEchoTrace struct {
	mu             sync.Mutex
	client, server []string
}

func (tr *shardEchoTrace) clientAdd(clk vclock.Clock, label string) {
	tr.mu.Lock()
	tr.client = append(tr.client, fmt.Sprintf("%s@%v", label, clk.Now().Sub(vclock.Epoch)))
	tr.mu.Unlock()
}

func (tr *shardEchoTrace) serverAdd(clk vclock.Clock, label string) {
	tr.mu.Lock()
	tr.server = append(tr.server, fmt.Sprintf("%s@%v", label, clk.Now().Sub(vclock.Epoch)))
	tr.mu.Unlock()
}

// runShardEchoClient drives host a: three sequential request/response
// exchanges, each timestamped on a's clock.
func runShardEchoClient(t *testing.T, tr *shardEchoTrace, clk vclock.Clock, a, b *Host) {
	c, err := a.Dial(b.Addr(80))
	if err != nil {
		t.Errorf("Dial: %v", err)
		return
	}
	tr.clientAdd(clk, "dialed")
	for i := 0; i < 3; i++ {
		if err := c.Send([]byte(fmt.Sprintf("ping-%d", i))); err != nil {
			t.Errorf("Send: %v", err)
			return
		}
		resp, err := c.Recv()
		if err != nil {
			t.Errorf("Recv: %v", err)
			return
		}
		tr.clientAdd(clk, fmt.Sprintf("echo:%s", resp))
	}
}

// runShardEchoServer drives host b: accept one connection and echo
// three messages, each timestamped on b's clock.
func runShardEchoServer(t *testing.T, tr *shardEchoTrace, clk vclock.Clock, ln *Listener) {
	c, err := ln.Accept()
	if err != nil {
		t.Errorf("Accept: %v", err)
		return
	}
	tr.serverAdd(clk, "accepted")
	for i := 0; i < 3; i++ {
		msg, err := c.Recv()
		if err != nil {
			t.Errorf("server Recv: %v", err)
			return
		}
		tr.serverAdd(clk, fmt.Sprintf("got:%s", msg))
		if err := c.Send(append([]byte("re:"), msg...)); err != nil {
			t.Errorf("server Send: %v", err)
			return
		}
	}
}

// TestBindShardsPartitionedEcho is the netem-level determinism gate for
// the windowed engine: the same echo exchange run (a) on one clock and
// (b) partitioned across two shards with the 2ms link as the boundary
// must produce byte-identical per-side traces — every packet crosses
// the shard boundary through the record exchange, yet lands at the
// exact instant the single-clock run delivers it.
func TestBindShardsPartitionedEcho(t *testing.T) {
	sequential := func() *shardEchoTrace {
		tr := &shardEchoTrace{}
		clk := vclock.New()
		clk.Run(func() {
			_, a, b, _ := shardPair(clk)
			ln, err := b.Listen(80)
			if err != nil {
				t.Fatal(err)
			}
			clk.Go(func() { runShardEchoServer(t, tr, clk, ln) })
			runShardEchoClient(t, tr, clk, a, b)
		})
		return tr
	}

	sharded := func() *shardEchoTrace {
		tr := &shardEchoTrace{}
		g := vclock.NewShardGroup(2)
		n, a, b, r := shardPair(g.Shard(0))
		la := n.BindShards(g, map[Device]int{b: 1})
		// Listen after BindShards: the listener's backlog mailbox captures
		// the host's clock at creation.
		ln, err := b.Listen(80)
		if err != nil {
			t.Fatal(err)
		}
		if la != 2*time.Millisecond {
			t.Fatalf("lookahead = %v, want 2ms (the boundary link)", la)
		}
		if got := g.Lookahead(); got != 2*time.Millisecond {
			t.Fatalf("group lookahead = %v, want 2ms", got)
		}
		_ = r
		g.Run(func(shard int) {
			clk := g.Shard(shard)
			if shard == 1 {
				runShardEchoServer(t, tr, clk, ln)
				// Keep the shard's clock alive while the client drains the
				// final echo: a stopped shard abandons its pending
				// transmissions.
				clk.Sleep(time.Second)
				return
			}
			runShardEchoClient(t, tr, clk, a, b)
			clk.Sleep(time.Second)
		})
		return tr
	}

	want, got := sequential(), sharded()
	if fmt.Sprint(want.client) != fmt.Sprint(got.client) {
		t.Errorf("client trace diverged:\nseq:     %v\nsharded: %v", want.client, got.client)
	}
	if fmt.Sprint(want.server) != fmt.Sprint(got.server) {
		t.Errorf("server trace diverged:\nseq:     %v\nsharded: %v", want.server, got.server)
	}
	if len(got.client) != 4 || len(got.server) != 4 {
		t.Errorf("trace lengths %d/%d, want 4/4", len(got.client), len(got.server))
	}
}

// TestBindShardsGuards checks the topology-build panics: a lossy link
// in a multi-shard partition (loss draws would couple shards through
// the shared rng) and a zero-latency boundary link (no safe window).
func TestBindShardsGuards(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		fn()
	}

	mustPanic("lossy link", func() {
		g := vclock.NewShardGroup(2)
		n := NewNetwork(g.Shard(0), 1)
		a := n.NewHost("a", ParseIP("10.0.0.1"))
		b := n.NewHost("b", ParseIP("10.0.0.2"))
		n.Connect(a.NIC(), b.NIC(), LinkConfig{Latency: time.Millisecond, LossRate: 0.1})
		n.BindShards(g, map[Device]int{b: 1})
	})

	mustPanic("zero-latency boundary", func() {
		g := vclock.NewShardGroup(2)
		n := NewNetwork(g.Shard(0), 1)
		a := n.NewHost("a", ParseIP("10.0.0.1"))
		b := n.NewHost("b", ParseIP("10.0.0.2"))
		n.Connect(a.NIC(), b.NIC(), LinkConfig{})
		n.BindShards(g, map[Device]int{b: 1})
	})

	mustPanic("shard out of range", func() {
		g := vclock.NewShardGroup(2)
		n := NewNetwork(g.Shard(0), 1)
		a := n.NewHost("a", ParseIP("10.0.0.1"))
		b := n.NewHost("b", ParseIP("10.0.0.2"))
		n.Connect(a.NIC(), b.NIC(), LinkConfig{Latency: time.Millisecond})
		n.BindShards(g, map[Device]int{b: 5})
	})
}

// TestBindShardsSingleShardKeepsLookaheadInfinite checks the degenerate
// partition: every device on shard 0 means no boundary links, a zero
// lookahead return, and the group left in infinite-lookahead mode.
func TestBindShardsSingleShardKeepsLookaheadInfinite(t *testing.T) {
	g := vclock.NewShardGroup(2)
	n := NewNetwork(g.Shard(0), 1)
	a := n.NewHost("a", ParseIP("10.0.0.1"))
	b := n.NewHost("b", ParseIP("10.0.0.2"))
	n.Connect(a.NIC(), b.NIC(), LinkConfig{Latency: time.Millisecond})
	if la := n.BindShards(g, nil); la != 0 {
		t.Fatalf("lookahead = %v, want 0 (no boundary links)", la)
	}
	if g.Lookahead() >= 0 {
		t.Fatalf("group lookahead = %v, want infinite", g.Lookahead())
	}
}
