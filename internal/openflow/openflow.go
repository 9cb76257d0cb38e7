// Package openflow implements the OpenFlow-subset software switch the
// transparent-access approach programs: priority flow tables matching on
// the TCP 5-tuple, set-field rewrite actions, output actions, idle and
// hard timeouts with FlowRemoved notifications, packet-in punting to the
// controller, and packet-out re-injection.
//
// The switch is a netem.Device, so rewrites genuinely happen on the
// packets of live connections — the client keeps talking to the
// registered cloud address while an edge instance answers (Fig. 2 of
// the paper).
package openflow

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/c3lab/transparentedge/internal/netem"
	"github.com/c3lab/transparentedge/internal/vclock"
)

// Match selects packets on the TCP 5-tuple; zero fields are wildcards.
// InPort 0 is a wildcard (ports are numbered from 1).
type Match struct {
	InPort  int
	SrcIP   netem.IP
	DstIP   netem.IP
	SrcPort uint16
	DstPort uint16
}

// matchSig identifies which fields of a Match are set (non-wildcard).
// The table keeps flows indexed by their exact Match, grouped by
// signature: classifying a packet probes one index key per distinct
// signature present — tuple-space search, as in Open vSwitch — instead
// of scanning the whole table.
type matchSig uint8

const (
	sigInPort matchSig = 1 << iota
	sigSrcIP
	sigDstIP
	sigSrcPort
	sigDstPort
)

// signature returns the set-field mask of m.
func (m Match) signature() matchSig {
	var s matchSig
	if m.InPort != 0 {
		s |= sigInPort
	}
	if m.SrcIP != 0 {
		s |= sigSrcIP
	}
	if m.DstIP != 0 {
		s |= sigDstIP
	}
	if m.SrcPort != 0 {
		s |= sigSrcPort
	}
	if m.DstPort != 0 {
		s |= sigDstPort
	}
	return s
}

// project builds the Match a flow of this signature must carry to cover
// pkt: packet fields where the signature sets them, wildcards elsewhere.
// A flow covers the packet iff its Match equals the projection — so an
// exact-match map lookup replicates Covers for the whole tuple class.
func (sig matchSig) project(pkt *netem.Packet, inPort int) Match {
	var m Match
	if sig&sigInPort != 0 {
		m.InPort = inPort
	}
	if sig&sigSrcIP != 0 {
		m.SrcIP = pkt.Src.IP
	}
	if sig&sigDstIP != 0 {
		m.DstIP = pkt.Dst.IP
	}
	if sig&sigSrcPort != 0 {
		m.SrcPort = pkt.Src.Port
	}
	if sig&sigDstPort != 0 {
		m.DstPort = pkt.Dst.Port
	}
	return m
}

// Covers reports whether the match selects pkt arriving on inPort.
func (m Match) Covers(pkt *netem.Packet, inPort int) bool {
	if m.InPort != 0 && m.InPort != inPort {
		return false
	}
	if m.SrcIP != 0 && m.SrcIP != pkt.Src.IP {
		return false
	}
	if m.DstIP != 0 && m.DstIP != pkt.Dst.IP {
		return false
	}
	if m.SrcPort != 0 && m.SrcPort != pkt.Src.Port {
		return false
	}
	if m.DstPort != 0 && m.DstPort != pkt.Dst.Port {
		return false
	}
	return true
}

// String renders the match compactly for diagnostics.
func (m Match) String() string {
	return fmt.Sprintf("in=%d %s:%d>%s:%d", m.InPort, wild(m.SrcIP.String(), m.SrcIP == 0), m.SrcPort, wild(m.DstIP.String(), m.DstIP == 0), m.DstPort)
}

func wild(s string, isWild bool) string {
	if isWild {
		return "*"
	}
	return s
}

// Action is one instruction applied to a matching packet.
type Action interface {
	isAction()
}

// SetDstIP rewrites the destination address.
type SetDstIP struct{ IP netem.IP }

// SetDstPort rewrites the destination port.
type SetDstPort struct{ Port uint16 }

// SetSrcIP rewrites the source address.
type SetSrcIP struct{ IP netem.IP }

// SetSrcPort rewrites the source port.
type SetSrcPort struct{ Port uint16 }

// Output forwards the packet out of a specific port.
type Output struct{ Port int }

// OutputNormal forwards via the switch's L3 routing table — the
// behaviour of unregistered traffic.
type OutputNormal struct{}

// OutputController punts the packet to the SDN controller (packet-in).
type OutputController struct{}

// Drop discards the packet.
type Drop struct{}

func (SetDstIP) isAction()         {}
func (SetDstPort) isAction()       {}
func (SetSrcIP) isAction()         {}
func (SetSrcPort) isAction()       {}
func (Output) isAction()           {}
func (OutputNormal) isAction()     {}
func (OutputController) isAction() {}
func (Drop) isAction()             {}

// FlowSpec describes one flow entry to install.
type FlowSpec struct {
	Priority int
	Match    Match
	Actions  []Action
	// IdleTimeout evicts the entry after inactivity; 0 disables.
	IdleTimeout time.Duration
	// HardTimeout evicts the entry unconditionally; 0 disables.
	HardTimeout time.Duration
	// Cookie is opaque controller metadata echoed in FlowRemoved.
	Cookie uint64
}

type flowEntry struct {
	FlowSpec
	seq      uint64
	lastUsed time.Time
	packets  int64
	bytes    int64
	removed  bool
}

// FlowRemoved notifies the controller of an evicted entry.
type FlowRemoved struct {
	Match  Match
	Cookie uint64
	// IdleTimeout is true for idle eviction, false for hard eviction or
	// explicit deletion.
	IdleTimeout bool
}

// PacketIn carries a punted packet to the controller. The switch keeps
// no buffer: the controller owns the packet and can hold it while it
// deploys a service, then re-inject it with PacketOut — the
// "on-demand deployment with waiting" mechanism.
type PacketIn struct {
	Pkt    *netem.Packet
	InPort int
}

// FlowStats is a snapshot of one entry's counters.
type FlowStats struct {
	Priority int
	Match    Match
	Cookie   uint64
	Packets  int64
	Bytes    int64
}

// Switch is one OpenFlow switch instance.
type Switch struct {
	name string
	clk  vclock.Clock
	// CtrlLatency is the control-channel one-way delay.
	CtrlLatency time.Duration

	mu        sync.Mutex
	ports     []*netem.Port
	routes    map[netem.IP]int
	ranges    []rangeRoute
	defRoute  int
	table     []*flowEntry
	seq       uint64
	packetIns *vclock.Mailbox[PacketIn]
	removals  *vclock.Mailbox[FlowRemoved]
	connected bool

	// removedCount tracks lazily evicted entries still occupying table
	// slots, for amortized compaction (see compactLocked).
	removedCount int
	// index groups live flows by their exact Match; sigCount tracks how
	// many live flows carry each field signature. Together they make
	// packet classification O(#signatures) map probes (tuple-space
	// search) instead of a linear table scan.
	index    map[Match][]*flowEntry
	sigCount map[matchSig]int

	// counters
	lookups int64 // packets classified
	punted  int64
	dropped int64
	normal  int64

	// faults, when non-nil, injects loss/delay into the control channel
	// (see channel.go). Atomic so the datapath checks it without mu.
	faults atomic.Pointer[ChannelFaults]
	// onPacketOut, when set, observes every controller PacketOut at the
	// moment it re-enters the pipeline (after control-channel latency
	// and loss). Nil-gated and atomic so the clean path pays one load.
	// The load engine uses it to measure punt→packet-out dispatch
	// latency; the observer must not retain or mutate the packet.
	onPacketOut atomic.Pointer[func(pkt *netem.Packet, inPort int)]
	// events carries lifecycle notifications (restarts) to the
	// controller.
	events *vclock.Mailbox[SwitchEvent]
	// control-channel fault counters (see ChannelStats).
	pktInDrops   atomic.Int64
	flowModDrops atomic.Int64
	flowRemDrops atomic.Int64
	pktOutDrops  atomic.Int64
	ctrlDelayed  atomic.Int64
}

// NewSwitch creates a switch with n ports (numbered 1..n) on net's clock.
func NewSwitch(net *netem.Network, name string, n int) *Switch {
	s := &Switch{
		name:        name,
		clk:         net.Clock,
		CtrlLatency: 2 * time.Millisecond,
		routes:      make(map[netem.IP]int),
		defRoute:    -1,
		index:       make(map[Match][]*flowEntry),
		sigCount:    make(map[matchSig]int),
		packetIns:   vclock.NewMailbox[PacketIn](net.Clock),
		removals:    vclock.NewMailbox[FlowRemoved](net.Clock),
		events:      vclock.NewMailbox[SwitchEvent](net.Clock),
	}
	for i := 1; i <= n; i++ {
		s.ports = append(s.ports, &netem.Port{Dev: s, ID: i})
	}
	return s
}

// DeviceName implements netem.Device.
func (s *Switch) DeviceName() string { return s.name }

// BindShardClock implements netem.ShardClockBinder: the switch's flow
// timers and control-channel mailboxes move to the shard's clock. Call
// it before any traffic or controller connection; the controller
// receiving from these mailboxes must live on the same shard — the
// control channel is an intra-shard primitive.
func (s *Switch) BindShardClock(clk vclock.Clock) {
	s.clk = clk
	s.packetIns.Init(clk)
	s.removals.Init(clk)
	s.events.Init(clk)
}

// Port returns the port numbered i (1-based).
func (s *Switch) Port(i int) *netem.Port {
	return s.ports[i-1]
}

// AddRoute sets the NORMAL-forwarding route for a host address.
func (s *Switch) AddRoute(ip netem.IP, port int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.routes[ip] = port
}

// rangeRoute is one NORMAL-forwarding prefix route: addresses matching
// base under mask egress on port. Checked after the exact host routes,
// before the default.
type rangeRoute struct {
	base, mask netem.IP
	port       int
}

// AddRouteRange sets a NORMAL-forwarding route for a whole address
// block (base/mask), consulted when no exact host route matches. One
// entry covers an arbitrarily large population — the load engine routes
// its entire CGNAT client block with a single range instead of one host
// route per flow.
func (s *Switch) AddRouteRange(base, mask netem.IP, port int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, r := range s.ranges {
		if r.base == base&mask && r.mask == mask {
			s.ranges[i].port = port
			return
		}
	}
	s.ranges = append(s.ranges, rangeRoute{base: base & mask, mask: mask, port: port})
}

// SetDefaultRoute sets the NORMAL route for unknown destinations
// (toward the cloud).
func (s *Switch) SetDefaultRoute(port int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.defRoute = port
}

// MicroStats reports the hits and misses of a microflow cache the switch
// does not have: hits is always 0, misses counts every classifier lookup.
func (s *Switch) MicroStats() (hits, misses int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return 0, s.lookups
}

// Connect attaches the controller; punted packets and flow removals are
// delivered on the returned mailboxes after the control-channel latency.
func (s *Switch) Connect() (*vclock.Mailbox[PacketIn], *vclock.Mailbox[FlowRemoved]) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.connected = true
	return s.packetIns, s.removals
}

// HandlePacket implements netem.Device: the flow table pipeline.
func (s *Switch) HandlePacket(pkt *netem.Packet, in *netem.Port) {
	inPort := 0
	if in != nil {
		inPort = in.ID
	}
	s.process(pkt, inPort)
}

// process looks up the table and applies the winning entry's actions,
// falling back to NORMAL forwarding on a miss.
func (s *Switch) process(pkt *netem.Packet, inPort int) {
	s.mu.Lock()
	s.lookups++
	var best *flowEntry
	for sig := range s.sigCount {
		for _, e := range s.index[sig.project(pkt, inPort)] {
			if e.removed {
				continue
			}
			if best == nil || e.Priority > best.Priority ||
				(e.Priority == best.Priority && e.seq < best.seq) {
				best = e
			}
		}
	}
	if best == nil {
		port := s.normalRouteLocked(pkt.Dst.IP)
		s.normal++
		s.mu.Unlock()
		s.send(pkt, port)
		return
	}
	best.lastUsed = s.clk.Now()
	best.packets++
	best.bytes += int64(pkt.WireSize())
	actions := best.Actions
	s.mu.Unlock()
	s.apply(pkt, inPort, actions)
}

// normalRouteLocked resolves the NORMAL egress for a destination;
// callers hold s.mu. The result is < 1 when no route exists.
func (s *Switch) normalRouteLocked(ip netem.IP) int {
	if port, ok := s.routes[ip]; ok {
		return port
	}
	for _, r := range s.ranges {
		if ip&r.mask == r.base {
			return r.port
		}
	}
	return s.defRoute
}

// drop counts and recycles an undeliverable packet.
func (s *Switch) drop(pkt *netem.Packet) {
	s.mu.Lock()
	s.dropped++
	s.mu.Unlock()
	pkt.Release()
}

// apply executes an action list on pkt.
func (s *Switch) apply(pkt *netem.Packet, inPort int, actions []Action) {
	for _, a := range actions {
		switch act := a.(type) {
		case SetDstIP:
			pkt.Dst.IP = act.IP
		case SetDstPort:
			pkt.Dst.Port = act.Port
		case SetSrcIP:
			pkt.Src.IP = act.IP
		case SetSrcPort:
			pkt.Src.Port = act.Port
		case Output:
			s.send(pkt, act.Port)
			return
		case OutputNormal:
			s.forwardNormal(pkt)
			return
		case OutputController:
			s.puntToController(pkt, inPort)
			return
		case Drop:
			s.drop(pkt)
			return
		}
	}
	// An action list without an output terminates in a drop, per spec.
	s.drop(pkt)
}

// send forwards pkt out the numbered port, dropping it when no such
// port exists (a NORMAL lookup without a route yields port < 1).
func (s *Switch) send(pkt *netem.Packet, port int) {
	if port < 1 || port > len(s.ports) {
		s.drop(pkt)
		return
	}
	s.ports[port-1].Send(pkt)
}

func (s *Switch) forwardNormal(pkt *netem.Packet) {
	s.mu.Lock()
	port := s.normalRouteLocked(pkt.Dst.IP)
	s.mu.Unlock()
	s.send(pkt, port)
}

func (s *Switch) puntToController(pkt *netem.Packet, inPort int) {
	s.mu.Lock()
	connected := s.connected
	s.punted++
	s.mu.Unlock()
	defer pkt.Release()
	if !connected {
		return
	}
	delay := s.CtrlLatency
	if f := s.faults.Load(); f != nil {
		key := "pktin/" + pkt.Src.String() + ">" + pkt.Dst.String()
		if f.drop(key, f.PacketInLoss) {
			s.pktInDrops.Add(1)
			return
		}
		if extra := f.delay(key); extra > 0 {
			s.ctrlDelayed.Add(1)
			delay += extra
		}
	}
	// The controller holds the punted copy while it deploys, so it gets
	// its own clone; the controller releases it when done with it.
	cp := pkt.Clone()
	s.clk.Post(delay, func() {
		s.packetIns.Send(PacketIn{Pkt: cp, InPort: inPort})
	})
}

// InstallFlow adds a flow entry (FlowMod ADD). The call models the
// control-channel latency before the entry becomes active. Under
// channel faults the message may be silently lost: the switch never
// installs the entry and the caller is not told — reconciliation is
// what repairs the divergence.
func (s *Switch) InstallFlow(spec FlowSpec) {
	delay := s.CtrlLatency
	if f := s.faults.Load(); f != nil {
		key := "mod/" + spec.Match.String()
		if f.drop(key, f.FlowModLoss) {
			s.flowModDrops.Add(1)
			s.clk.Sleep(delay)
			return
		}
		if extra := f.delay(key); extra > 0 {
			s.ctrlDelayed.Add(1)
			delay += extra
		}
	}
	s.clk.Sleep(delay)
	s.mu.Lock()
	e := s.installLocked(spec)
	s.mu.Unlock()
	s.armTimers(e)
}

// installLocked appends one entry to the table and classifier index.
// Callers hold s.mu and arm the entry's timers after unlocking.
func (s *Switch) installLocked(spec FlowSpec) *flowEntry {
	s.seq++
	e := &flowEntry{FlowSpec: spec, seq: s.seq, lastUsed: s.clk.Now()}
	s.table = append(s.table, e)
	s.index[spec.Match] = append(s.index[spec.Match], e)
	s.sigCount[spec.Match.signature()]++
	return e
}

// armTimers starts an entry's idle and hard eviction timers.
func (s *Switch) armTimers(e *flowEntry) {
	if e.IdleTimeout > 0 {
		s.scheduleIdleCheck(e, e.IdleTimeout)
	}
	if e.HardTimeout > 0 {
		s.clk.Post(e.HardTimeout, func() {
			s.evict(e, false)
		})
	}
}

// scheduleIdleCheck arms the idle-eviction timer after wait, re-arming
// lazily when the entry has seen traffic within its idle timeout.
func (s *Switch) scheduleIdleCheck(e *flowEntry, wait time.Duration) {
	s.clk.Post(wait, func() {
		s.mu.Lock()
		if e.removed {
			s.mu.Unlock()
			return
		}
		silent := s.clk.Since(e.lastUsed)
		s.mu.Unlock()
		if silent >= e.IdleTimeout {
			s.evict(e, true)
			return
		}
		s.scheduleIdleCheck(e, e.IdleTimeout-silent)
	})
}

// evict removes an entry and notifies the controller.
func (s *Switch) evict(e *flowEntry, idle bool) {
	s.mu.Lock()
	if e.removed {
		s.mu.Unlock()
		return
	}
	e.removed = true
	s.removedCount++
	s.dropIndexLocked(e)
	s.compactLocked()
	connected := s.connected
	s.mu.Unlock()
	if connected {
		delay := s.CtrlLatency
		if f := s.faults.Load(); f != nil {
			key := "rem/" + e.Match.String()
			if f.drop(key, f.FlowRemovedLoss) {
				s.flowRemDrops.Add(1)
				return
			}
			if extra := f.delay(key); extra > 0 {
				s.ctrlDelayed.Add(1)
				delay += extra
			}
		}
		msg := FlowRemoved{Match: e.Match, Cookie: e.Cookie, IdleTimeout: idle}
		s.clk.Post(delay, func() {
			s.removals.Send(msg)
		})
	}
}

// DeleteFlows removes all entries with the given cookie (FlowMod
// DELETE); no FlowRemoved is generated for explicit deletion.
func (s *Switch) DeleteFlows(cookie uint64) int {
	delay := s.CtrlLatency
	if f := s.faults.Load(); f != nil {
		key := fmt.Sprintf("del/%d", cookie)
		if f.drop(key, f.FlowModLoss) {
			s.flowModDrops.Add(1)
			s.clk.Sleep(delay)
			return 0
		}
		if extra := f.delay(key); extra > 0 {
			s.ctrlDelayed.Add(1)
			delay += extra
		}
	}
	s.clk.Sleep(delay)
	s.mu.Lock()
	defer s.mu.Unlock()
	kept := s.table[:0]
	removed := 0
	for _, e := range s.table {
		if e.removed {
			continue // lazily evicted leftover, drop it for good
		}
		if e.Cookie == cookie {
			e.removed = true
			s.dropIndexLocked(e)
			removed++
			continue
		}
		kept = append(kept, e)
	}
	for i := len(kept); i < len(s.table); i++ {
		s.table[i] = nil
	}
	s.table = kept
	s.removedCount = 0
	return removed
}

// dropIndexLocked unlinks an evicted entry from the classifier index.
// The per-Match bucket is tiny (re-installs of one flow), so the swap
// removal is O(1) in practice; selection among bucket entries compares
// priority and sequence, so bucket order is irrelevant.
func (s *Switch) dropIndexLocked(e *flowEntry) {
	idx := s.index[e.Match]
	for i, cur := range idx {
		if cur == e {
			idx[i] = idx[len(idx)-1]
			idx[len(idx)-1] = nil
			idx = idx[:len(idx)-1]
			break
		}
	}
	if len(idx) == 0 {
		delete(s.index, e.Match)
	} else {
		s.index[e.Match] = idx
	}
	sig := e.Match.signature()
	if s.sigCount[sig]--; s.sigCount[sig] == 0 {
		delete(s.sigCount, sig)
	}
}

// compactLocked rebuilds the table in place once evicted entries
// outnumber live ones. Eviction itself only marks the entry, so a flow
// churn (install + idle-evict per warm packet-in) costs amortized O(1)
// instead of one full-table copy per evicted flow. Lookups already skip
// removed entries, so compaction is invisible except for cost.
func (s *Switch) compactLocked() {
	if s.removedCount*2 <= len(s.table) {
		return
	}
	kept := s.table[:0]
	for _, e := range s.table {
		if !e.removed {
			kept = append(kept, e)
		}
	}
	for i := len(kept); i < len(s.table); i++ {
		s.table[i] = nil
	}
	s.table = kept
	s.removedCount = 0
}

// DeleteExact removes the single live entry with exactly this match
// and priority (FlowMod DELETE_STRICT); no FlowRemoved is generated.
// It reports whether an entry was removed. Subject to flow-mod loss.
func (s *Switch) DeleteExact(m Match, priority int) bool {
	delay := s.CtrlLatency
	if f := s.faults.Load(); f != nil {
		key := "del/" + m.String()
		if f.drop(key, f.FlowModLoss) {
			s.flowModDrops.Add(1)
			s.clk.Sleep(delay)
			return false
		}
		if extra := f.delay(key); extra > 0 {
			s.ctrlDelayed.Add(1)
			delay += extra
		}
	}
	s.clk.Sleep(delay)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.deleteExactLocked(m, priority)
}

// deleteExactLocked removes the first live entry with the exact match
// and priority. Callers hold s.mu.
func (s *Switch) deleteExactLocked(m Match, priority int) bool {
	for _, e := range s.index[m] {
		if !e.removed && e.Priority == priority {
			e.removed = true
			s.removedCount++
			s.dropIndexLocked(e)
			s.compactLocked()
			return true
		}
	}
	return false
}

// ApplyBundle applies a reconciliation repair set — orphan deletions
// followed by missing installs — as one barriered, acknowledged
// exchange: the OpenFlow BUNDLE commit idiom. Like ResyncFrom it is
// not subject to channel faults; reconcilers repair with it precisely
// so that repairs never themselves need repairing, and so that repair
// traffic does not perturb the fault model's per-message loss streams.
// It returns how many deletes removed a live entry.
func (s *Switch) ApplyBundle(deletes, installs []FlowSpec) int {
	s.clk.Sleep(2 * s.CtrlLatency) // bundle transfer + commit round trip
	s.mu.Lock()
	deleted := 0
	for _, spec := range deletes {
		if s.deleteExactLocked(spec.Match, spec.Priority) {
			deleted++
		}
	}
	entries := make([]*flowEntry, 0, len(installs))
	for _, spec := range installs {
		entries = append(entries, s.installLocked(spec))
	}
	s.mu.Unlock()
	for _, e := range entries {
		s.armTimers(e)
	}
	return deleted
}

// Barrier models an OFPT_BARRIER round trip: it returns once all
// preceding control messages have been processed, or false when the
// barrier itself was lost to channel faults.
func (s *Switch) Barrier() bool {
	s.clk.Sleep(2 * s.CtrlLatency)
	if f := s.faults.Load(); f != nil && f.drop("barrier", f.FlowModLoss) {
		s.flowModDrops.Add(1)
		return false
	}
	return true
}

// Restart models a switch reboot: the flow table and classifier index
// are lost; static configuration (routes, port
// wiring, controller connection) survives. The controller learns of
// the reboot on the event mailbox after the channel latency and is
// expected to ResyncFrom its desired state.
func (s *Switch) Restart() {
	s.mu.Lock()
	s.wipeTableLocked()
	connected := s.connected
	s.mu.Unlock()
	if connected {
		at := s.clk.Now()
		s.clk.Post(s.CtrlLatency, func() {
			s.events.Send(SwitchEvent{Restarted: true, At: at})
		})
	}
}

// wipeTableLocked drops every flow entry. Entries are marked removed
// so in-flight idle/hard timers no-op.
// Callers hold s.mu.
func (s *Switch) wipeTableLocked() {
	for i, e := range s.table {
		e.removed = true
		s.table[i] = nil
	}
	s.table = s.table[:0]
	s.removedCount = 0
	clear(s.index)
	clear(s.sigCount)
}

// ResyncFrom replaces the whole flow table with specs in one reliable
// barriered exchange — the recovery primitive the controller uses
// after a restart. Unlike InstallFlow it is not subject to channel
// faults: the real-world analogue is a bundled, acknowledged,
// retried-until-applied sync.
func (s *Switch) ResyncFrom(specs []FlowSpec) {
	s.clk.Sleep(s.CtrlLatency)
	s.mu.Lock()
	s.wipeTableLocked()
	entries := make([]*flowEntry, 0, len(specs))
	for _, spec := range specs {
		entries = append(entries, s.installLocked(spec))
	}
	s.mu.Unlock()
	for _, e := range entries {
		s.armTimers(e)
	}
}

// FlowTable reads back the live table as FlowSpecs (a flow-stats
// round trip), sorted by priority descending then match string. The
// reconciler audits this snapshot against its desired state.
func (s *Switch) FlowTable() []FlowSpec {
	s.clk.Sleep(2 * s.CtrlLatency)
	s.mu.Lock()
	out := make([]FlowSpec, 0, len(s.table))
	for _, e := range s.table {
		if e.removed {
			continue
		}
		out = append(out, e.FlowSpec)
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Priority != out[j].Priority {
			return out[i].Priority > out[j].Priority
		}
		return out[i].Match.String() < out[j].Match.String()
	})
	return out
}

// PacketOut re-injects a packet held by the controller, applying the
// given actions (typically after installing the redirect flows).
func (s *Switch) PacketOut(pkt *netem.Packet, inPort int, actions []Action) {
	delay := s.CtrlLatency
	if f := s.faults.Load(); f != nil {
		key := "out/" + pkt.Src.String() + ">" + pkt.Dst.String()
		if f.drop(key, f.PacketOutLoss) {
			s.pktOutDrops.Add(1)
			s.clk.Sleep(delay)
			return
		}
		if extra := f.delay(key); extra > 0 {
			s.ctrlDelayed.Add(1)
			delay += extra
		}
	}
	s.clk.Sleep(delay)
	if h := s.onPacketOut.Load(); h != nil {
		(*h)(pkt, inPort)
	}
	if len(actions) == 0 {
		// OFPP_TABLE: run the packet through the pipeline again.
		s.process(pkt.Clone(), inPort)
		return
	}
	s.apply(pkt.Clone(), inPort, actions)
}

// SetPacketOutHook installs (or, with nil, clears) the packet-out
// observer. See the onPacketOut field comment for the contract.
func (s *Switch) SetPacketOutHook(h func(pkt *netem.Packet, inPort int)) {
	if h == nil {
		s.onPacketOut.Store(nil)
		return
	}
	s.onPacketOut.Store(&h)
}

// Flows returns a snapshot of the table sorted by priority then install
// order.
func (s *Switch) Flows() []FlowStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]FlowStats, 0, len(s.table))
	for _, e := range s.table {
		if e.removed {
			continue
		}
		out = append(out, FlowStats{
			Priority: e.Priority,
			Match:    e.Match,
			Cookie:   e.Cookie,
			Packets:  e.packets,
			Bytes:    e.bytes,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Priority != out[j].Priority {
			return out[i].Priority > out[j].Priority
		}
		return out[i].Match.String() < out[j].Match.String()
	})
	return out
}

// Counters reports punted, dropped, and NORMAL-forwarded packet counts.
func (s *Switch) Counters() (punted, dropped, normal int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.punted, s.dropped, s.normal
}
