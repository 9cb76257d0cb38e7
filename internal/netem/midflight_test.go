package netem

import (
	"fmt"
	"testing"
	"time"

	"github.com/c3lab/transparentedge/internal/vclock"
)

// TestLinkDownMidFlightDrop cuts a mid-path link under an established
// flow: packets offered to the dead link are dropped there and counted
// in DownDrops, never delivered through it, and the transport's
// retransmission recovers the message once the link is back.
func TestLinkDownMidFlightDrop(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		n := NewNetwork(clk, 1)
		client := n.NewHost("client", ParseIP("10.0.0.1"))
		srv := n.NewHost("srv", ParseIP("10.0.1.1"))
		r1 := NewRouter(n, "r1", 2)
		r2 := NewRouter(n, "r2", 2)
		cfg := LinkConfig{Latency: time.Millisecond}
		n.Connect(client.NIC(), r1.Port(0), cfg)
		mid := n.Connect(r1.Port(1), r2.Port(0), cfg)
		n.Connect(r2.Port(1), srv.NIC(), cfg)
		for _, r := range []*Router{r1, r2} {
			r.AddRoute(srv.IP(), r.Port(1))
			r.AddRoute(client.IP(), r.Port(0))
		}
		ln, _ := srv.Listen(80)
		clk.Go(func() {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			for {
				msg, err := c.Recv()
				if err != nil {
					return
				}
				c.Send(msg)
			}
		})
		c, err := client.Dial(srv.Addr(80))
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		for i := 0; i < 3; i++ {
			c.Send([]byte(fmt.Sprintf("warm%d", i)))
			if _, err := c.Recv(); err != nil {
				t.Errorf("warm recv %d: %v", i, err)
				return
			}
		}
		// Let the final warm-round ACK drain so only the cut message is
		// in play.
		clk.Sleep(100 * time.Millisecond)
		// Cut the mid link. The first transmission and the first
		// retransmit (RTO 500ms) hit the dead link; the link comes back
		// at 1.2s, so the second retransmit (1.5s, doubled RTO) lands.
		mid.SetDown(true)
		clk.Post(1200*time.Millisecond, func() { mid.SetDown(false) })
		start := clk.Now()
		c.Send([]byte("dark"))
		msg, err := c.Recv()
		if err != nil {
			t.Errorf("recv across the cut: %v", err)
			return
		}
		if string(msg) != "dark" {
			t.Errorf("echo across the cut = %q", msg)
		}
		if got, want := clk.Now().Sub(start), 1500*time.Millisecond+6*time.Millisecond; got != want {
			t.Errorf("echo across the cut took %v, want %v (second retransmit plus one round trip)", got, want)
		}
		for i := 0; i < 2; i++ {
			c.Send([]byte(fmt.Sprintf("after%d", i)))
			if _, err := c.Recv(); err != nil {
				t.Errorf("post-recovery recv %d: %v", i, err)
				return
			}
		}
		if got := mid.Stats().DownDrops; got != 2 {
			t.Errorf("DownDrops = %d, want 2 (first transmission and first retransmit)", got)
		}
		c.Close()
	})
}

// TestRouteChangeMidFlight reroutes a flow mid-stream through a diamond
// topology: packets sent after the route change take the new branch,
// which shows as a shorter round trip.
func TestRouteChangeMidFlight(t *testing.T) {
	var srvAt []time.Duration
	clk := vclock.New()
	clk.Run(func() {
		n := NewNetwork(clk, 1)
		client := n.NewHost("client", ParseIP("10.0.0.1"))
		srv := n.NewHost("srv", ParseIP("10.0.1.1"))
		r1 := NewRouter(n, "r1", 3) // port0 client, port1 slow branch, port2 fast branch
		slow := NewRouter(n, "slow", 2)
		fast := NewRouter(n, "fast", 2)
		rj := NewRouter(n, "rj", 3) // join: port0 slow, port1 fast, port2 srv
		n.Connect(client.NIC(), r1.Port(0), LinkConfig{Latency: time.Millisecond})
		n.Connect(r1.Port(1), slow.Port(0), LinkConfig{Latency: 20 * time.Millisecond})
		n.Connect(r1.Port(2), fast.Port(0), LinkConfig{Latency: 2 * time.Millisecond})
		n.Connect(slow.Port(1), rj.Port(0), LinkConfig{Latency: time.Millisecond})
		n.Connect(fast.Port(1), rj.Port(1), LinkConfig{Latency: time.Millisecond})
		n.Connect(rj.Port(2), srv.NIC(), LinkConfig{Latency: time.Millisecond})
		r1.AddRoute(srv.IP(), r1.Port(1)) // start on the slow branch
		r1.AddRoute(client.IP(), r1.Port(0))
		slow.AddRoute(srv.IP(), slow.Port(1))
		slow.AddRoute(client.IP(), slow.Port(0))
		fast.AddRoute(srv.IP(), fast.Port(1))
		fast.AddRoute(client.IP(), fast.Port(0))
		rj.AddRoute(srv.IP(), rj.Port(2))
		rj.AddRoute(client.IP(), rj.Port(0)) // replies retrace the slow branch

		ln, _ := srv.Listen(80)
		clk.Go(func() {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			for {
				if _, err := c.Recv(); err != nil {
					return
				}
				srvAt = append(srvAt, clk.Now().Sub(vclock.Epoch))
				c.Send([]byte("ok"))
			}
		})
		c, err := client.Dial(srv.Addr(80))
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		for i := 0; i < 3; i++ {
			c.Send([]byte(fmt.Sprintf("slow%d", i)))
			c.Recv()
		}
		// Reroute mid-flow: the next packets take the fast branch.
		r1.AddRoute(srv.IP(), r1.Port(2))
		for i := 0; i < 3; i++ {
			c.Send([]byte(fmt.Sprintf("fast%d", i)))
			c.Recv()
		}
		c.Close()
	})
	if len(srvAt) != 6 {
		t.Fatalf("server saw %d messages, want 6", len(srvAt))
	}
	// Replies always take the slow branch, so each arrival gap is one
	// reply (23 ms) plus the next request: 23 ms over the slow branch,
	// 5 ms over the fast one.
	if slowGap, want := srvAt[2]-srvAt[1], 46*time.Millisecond; slowGap != want {
		t.Errorf("slow-branch arrival gap %v, want %v", slowGap, want)
	}
	if fastGap, want := srvAt[5]-srvAt[4], 28*time.Millisecond; fastGap != want {
		t.Errorf("fast-branch arrival gap %v, want %v", fastGap, want)
	}
}
