package netem

import (
	"fmt"
	"time"

	"github.com/c3lab/transparentedge/internal/vclock"
)

// shardBoundary tags one direction of a link whose endpoints live on
// different shards: deliveries cross through the group's record
// exchange instead of a local Post2.
type shardBoundary struct {
	g        *vclock.ShardGroup
	from, to int
}

// ShardClockBinder is implemented by devices that can be rebound to a
// shard's clock. Host and Router implement it here; openflow.Switch
// implements it in its own package. A device assigned to a non-zero
// shard must implement it — otherwise its timers would silently keep
// firing on the network's (shard-0) clock.
type ShardClockBinder interface {
	BindShardClock(clk vclock.Clock)
}

// BindShardClock implements ShardClockBinder for hosts: the transport
// (connections, listeners, retransmission timers) runs on the shard's
// clock after Network.BindShards.
func (h *Host) BindShardClock(clk vclock.Clock) { h.clk = clk }

// BindShards partitions the topology across the clocks of a ShardGroup:
// shardOf assigns each device to a shard (devices it does not mention
// stay on shard 0, whose clock is the network's own). Links pick up
// per-direction clocks — a transmission runs on the sender's shard —
// and links whose endpoints straddle shards become boundary links whose
// deliveries cross through the group's canonical record exchange.
//
// The returned duration is the partition's lookahead: the minimum
// latency over all boundary links. BindShards installs it on the group,
// so after it returns the group is ready to Run.
//
// Constraints, all enforced by panic because they are topology-build
// bugs, not runtime conditions:
//
//   - every boundary link needs positive latency (a zero-latency
//     cross-shard edge admits no safe window);
//   - no link may have a loss rate when more than one shard is in use
//     (loss draws consume the network's shared rng, which would make the
//     draw order — and thus the run — depend on shard scheduling);
//   - a device assigned to a non-zero shard must implement
//     ShardClockBinder;
//   - no packet capture may be installed (the tap timestamps with the
//     network clock and serializes all shards through one callback).
//
// Call BindShards after the topology is wired but before any listener
// or connection exists: those capture the host's clock at creation, so
// ones made earlier would keep waiting on the pre-bind clock.
// Mailbox-coupled devices (an OpenFlow switch and its controller) must
// share a shard: mailboxes are intra-shard primitives.
func (n *Network) BindShards(g *vclock.ShardGroup, shardOf map[Device]int) time.Duration {
	if n.capture.Load() != nil {
		panic("netem: BindShards with a packet capture installed")
	}
	shard := func(d Device) int {
		s := shardOf[d]
		if s < 0 || s >= g.Shards() {
			panic(fmt.Sprintf("netem: device %q assigned to shard %d of %d", d.DeviceName(), s, g.Shards()))
		}
		return s
	}
	multi := false
	for _, s := range shardOf {
		if s != 0 {
			multi = true
		}
	}

	bound := make(map[Device]bool)
	bind := func(d Device) {
		if bound[d] {
			return
		}
		bound[d] = true
		s := shard(d)
		if b, ok := d.(ShardClockBinder); ok {
			b.BindShardClock(g.Shard(s))
			return
		}
		if s != 0 {
			panic(fmt.Sprintf("netem: device %q on shard %d does not implement ShardClockBinder", d.DeviceName(), s))
		}
	}

	// sealed flips once the initial bind completes: links bound later
	// (host re-homing) may not shrink the group's installed lookahead.
	lookahead := time.Duration(0)
	sealed := false
	bindLink := func(l *Link) {
		if multi && l.cfg.LossRate > 0 {
			panic("netem: BindShards with a lossy link: loss draws would couple shards through the shared rng")
		}
		bind(l.a.Dev)
		bind(l.b.Dev)
		sa, sb := shard(l.a.Dev), shard(l.b.Dev)
		l.clkA, l.clkB = g.Shard(sa), g.Shard(sb)
		if sa == sb {
			return
		}
		if l.cfg.Latency <= 0 {
			panic(fmt.Sprintf("netem: zero-latency link between %q and %q crosses shards %d/%d",
				l.a.Dev.DeviceName(), l.b.Dev.DeviceName(), sa, sb))
		}
		if sealed && l.cfg.Latency < lookahead {
			panic(fmt.Sprintf("netem: re-homed link between %q and %q has latency %v below the group lookahead %v",
				l.a.Dev.DeviceName(), l.b.Dev.DeviceName(), l.cfg.Latency, lookahead))
		}
		l.xAB = &shardBoundary{g: g, from: sa, to: sb}
		l.xBA = &shardBoundary{g: g, from: sb, to: sa}
		if !sealed && (lookahead == 0 || l.cfg.Latency < lookahead) {
			lookahead = l.cfg.Latency
		}
	}
	n.mu.Lock()
	links := append([]*Link(nil), n.links...)
	n.mu.Unlock()
	for _, l := range links {
		bindLink(l)
	}
	// Hosts with no link (loopback-only) still need their shard clock.
	n.mu.Lock()
	hosts := make([]*Host, 0, len(n.hosts))
	for _, h := range n.hosts {
		hosts = append(hosts, h)
	}
	n.mu.Unlock()
	for _, h := range hosts {
		bind(h)
	}

	if lookahead > 0 {
		g.SetLookahead(lookahead)
	}
	sealed = true
	n.mu.Lock()
	n.bindNewLink = bindLink
	n.mu.Unlock()
	return lookahead
}
