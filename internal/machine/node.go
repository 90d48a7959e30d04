package machine

import (
	"fmt"
	"sort"

	"greencell/internal/energy"
	"greencell/internal/invariant"
	"greencell/internal/queueing"
	"greencell/internal/topology"
	"greencell/internal/traffic"
	"greencell/internal/units"
)

// cmdTol mirrors energy.Battery.Step's feasibility tolerance: commands
// within it of a physical limit pass through unclamped, so a perfect-
// network run never perturbs the monolith's float values (the LP's
// solutions are feasible only up to the same tolerance).
const cmdTol = units.Energy(1e-6)

// NodeMachine is one node's slice of the physical system: its real
// per-session data queues Q_i^s and battery x_i. It observes only its
// own environment (LocalObs), gossips its state to the coordinator, and
// executes the commands that reach it — clamped against its true state,
// because a command computed from a stale view may be infeasible here.
//
// Fidelity contract (docs/DISTRIBUTED.md): the node reproduces the
// monolith's floating-point arithmetic exactly when commands match the
// monolith's decisions. Three orderings are load-bearing:
//
//   - flow clamping walks the node's out-links twice per session —
//     sink-destined links first, then the rest, ascending link ID both
//     times — mirroring the monolith's grant loop restricted to one
//     transmitter (the per-node `remaining` accumulator sees the same
//     subtraction sequence);
//   - service totals re-accumulate per session over out-links ascending,
//     matching the monolith's services[From] accumulation order;
//   - arrivals accumulate over in-link transfers ascending by link ID,
//     then the session's admission — the monolith's arrivals[To] order.
type NodeMachine struct {
	id       NodeID
	coord    NodeID
	net      *topology.Network
	sessions []traffic.Session
	sinks    traffic.SinkTable
	checks   bool

	queues  []queueing.Queue
	battery *energy.Battery

	slot      int
	phase     phase
	renewWh   units.Energy
	connected bool

	grant *ScheduleGrant
	flows *FlowUpdate
	offer *AdmissionOffer
	cmd   *EnergyCommand
	price units.Price

	svc   []float64
	arr   []float64
	inbox []PacketTransfer

	cumDelivered  float64
	sinkLog       []sinkDelivery // this slot's sink arrivals, in settle order
	cumDeficitWh  units.Energy
	cumClamps     int
	cumMissedCmds int
	clampsSlot    int
	lateSlot      int
	missedSlot    int

	err error
}

// NewNodeMachine builds node id's machine from the shared immutable
// network and traffic model. checks enables the node-local invariant
// validation of every executed slot (the per-node-view counterpart of
// internal/invariant's eq. (2)/(9)–(14) checks).
func NewNodeMachine(id NodeID, coord NodeID, net *topology.Network, tm *traffic.Model, checks bool) (*NodeMachine, error) {
	if int(id) < 0 || int(id) >= net.NumNodes() {
		return nil, fmt.Errorf("machine: node id %d outside [0,%d)", id, net.NumNodes())
	}
	spec := net.Nodes[id].Spec
	bat, err := energy.NewBattery(spec.Battery, spec.BatteryInitWh)
	if err != nil {
		return nil, fmt.Errorf("machine: node %d battery: %w", id, err)
	}
	S := tm.NumSessions()
	return &NodeMachine{
		id:       id,
		coord:    coord,
		net:      net,
		sessions: tm.Sessions,
		sinks:    tm.SinkTable(net.NumNodes(), net.IsBS),
		checks:   checks,
		queues:   make([]queueing.Queue, S),
		battery:  bat,
		slot:     -1,
		svc:      make([]float64, S),
		arr:      make([]float64, S),
	}, nil
}

// ID implements Machine.
func (m *NodeMachine) ID() NodeID { return m.id }

// InitialMessages implements Machine.
func (m *NodeMachine) InitialMessages() []Message { return nil }

// Err returns the first fatal condition the node hit (a command the
// clamps could not repair, or a failed node-local invariant).
func (m *NodeMachine) Err() error { return m.err }

// Handle implements Machine.
func (m *NodeMachine) Handle(msg Message) []Message {
	switch v := msg.(type) {
	case LocalObs:
		return m.beginSlot(v)
	case ScheduleGrant:
		m.storeCommand(v.Slot, phaseExecute, func() { m.grant = &v })
	case FlowUpdate:
		m.storeCommand(v.Slot, phaseExecute, func() { m.flows = &v })
	case AdmissionOffer:
		m.storeCommand(v.Slot, phaseSettle, func() { m.offer = &v })
	case EnergyCommand:
		m.storeCommand(v.Slot, phaseSettle, func() { m.cmd = &v })
	case EnergyPrice:
		m.storeCommand(v.Slot, phaseSettle, func() { m.price = v.PriceWh })
	case PacketTransfer:
		// Data-plane delivery is next-tick reliable, so a transfer is
		// always for the current slot; guard anyway.
		if v.Slot == m.slot {
			m.inbox = append(m.inbox, v)
		}
	case phaseMark:
		switch v.Phase {
		case phaseExecute:
			m.phase = phaseExecute
			return m.execute()
		case phaseSettle:
			m.phase = phaseSettle
			m.settle()
		}
	}
	return nil
}

// storeCommand files a coordinator command if it is still usable:
// commands for past slots, or arriving after the phase that consumes
// them, are discarded and counted late.
func (m *NodeMachine) storeCommand(slot int, useBy phase, set func()) {
	if slot != m.slot || m.phase >= useBy {
		m.lateSlot++
		return
	}
	set()
}

// beginSlot resets the node's slot state from its local observation and
// gossips the state it is entering the slot with. The gossip's slot
// stamp t tells the coordinator "this was node i at the start of slot t"
// — exactly the state the monolith's Step(t) would read.
func (m *NodeMachine) beginSlot(obs LocalObs) []Message {
	m.slot = obs.Slot
	m.phase = phaseObserve
	m.renewWh = obs.RenewWh
	m.connected = obs.Connected
	m.grant, m.flows, m.offer, m.cmd = nil, nil, nil, nil
	m.inbox = m.inbox[:0]
	m.clampsSlot, m.lateSlot, m.missedSlot = 0, 0, 0
	for s := range m.svc {
		m.svc[s] = 0
		m.arr[s] = 0
	}
	q := make([]float64, len(m.queues))
	for s := range m.queues {
		q[s] = m.queues[s].Backlog()
	}
	return []Message{StateGossip{
		header:           header{from: m.id, to: m.coord},
		Slot:             obs.Slot,
		Q:                q,
		BatteryWh:        m.battery.Level(),
		RenewWh:          obs.RenewWh,
		Connected:        obs.Connected,
		CumDeliveredPkts: m.cumDelivered,
		CumDeficitWh:     m.cumDeficitWh,
		CumClamps:        m.cumClamps,
		CumMissedCmds:    m.cumMissedCmds,
	}}
}

// execute runs the slot's transmissions: the routed flows of FlowUpdate
// clamped against the node's true backlogs, emitted as PacketTransfers.
// With no (or a late) FlowUpdate the node stays silent this slot.
func (m *NodeMachine) execute() []Message {
	if m.flows == nil {
		return nil
	}
	out := m.net.OutLinks(int(m.id))
	if len(m.flows.Links) != len(out) {
		m.fail(fmt.Errorf("machine: node %d slot %d: FlowUpdate covers %d links, want %d",
			m.id, m.slot, len(m.flows.Links), len(out)))
		return nil
	}
	S := len(m.sessions)
	actual := make([][]float64, len(out))
	actualSlab := make([]float64, len(out)*S)
	for k, l := range out {
		if m.flows.Links[k] != l {
			m.fail(fmt.Errorf("machine: node %d slot %d: FlowUpdate link %d at position %d, want %d",
				m.id, m.slot, m.flows.Links[k], k, l))
			return nil
		}
		actual[k] = actualSlab[k*S : (k+1)*S : (k+1)*S]
	}
	for s := 0; s < S; s++ {
		remaining := m.queues[s].Backlog()
		// Sink-destined grants first, then the rest — both passes in
		// ascending link order (the monolith's grant-loop order seen
		// from one transmitter).
		for pass := 0; pass < 2; pass++ {
			for k, l := range out {
				toSink := m.sinks.IsSink(s, m.net.Links[l].To)
				if (pass == 0) != toSink {
					continue
				}
				f := m.flows.FlowPkts[k][s]
				if f <= 0 {
					continue
				}
				if f > remaining {
					f = remaining
				}
				actual[k][s] = f
				remaining -= f
			}
		}
	}
	// Service totals re-accumulate per session over out-links ascending
	// — the monolith's services[From] += a order.
	for s := 0; s < S; s++ {
		for k := range out {
			if a := actual[k][s]; a != 0 {
				m.svc[s] += a
			}
		}
	}
	var msgs []Message
	for k, l := range out {
		shipped := false
		for s := 0; s < S; s++ {
			if actual[k][s] > 0 {
				shipped = true
				break
			}
		}
		if !shipped {
			continue
		}
		msgs = append(msgs, PacketTransfer{
			header: header{from: m.id, to: NodeID(m.net.Links[l].To)},
			Slot:   m.slot,
			Link:   l,
			Pkts:   actual[k],
		})
	}
	return msgs
}

// sinkDelivery is one in-link transfer's packets of one session that
// reached the session's sink.
type sinkDelivery struct {
	link, sess int
	pkts       float64
}

// settle closes the slot: arrivals (in-link transfers, then admission)
// are folded into the queues against the executed services, and the
// energy command is applied to the real battery through the physical
// clamps.
func (m *NodeMachine) settle() {
	// Arrivals in ascending in-link order — the monolith's
	// arrivals[To] += a accumulation order.
	sort.Slice(m.inbox, func(a, b int) bool { return m.inbox[a].Link < m.inbox[b].Link })
	m.sinkLog = m.sinkLog[:0]
	for _, tr := range m.inbox {
		for s, a := range tr.Pkts {
			if a == 0 {
				continue
			}
			if m.sinks.IsSink(s, int(m.id)) {
				m.cumDelivered += a
				m.sinkLog = append(m.sinkLog, sinkDelivery{link: tr.Link, sess: s, pkts: a})
			} else {
				m.arr[s] += a
			}
		}
	}
	if m.offer != nil {
		for k, s := range m.offer.Sessions {
			if s < 0 || s >= len(m.arr) {
				m.fail(fmt.Errorf("machine: node %d slot %d: AdmissionOffer session %d", m.id, m.slot, s))
				return
			}
			m.arr[s] += m.offer.AdmitPkts[k]
		}
	}
	for s := range m.queues {
		if m.sinks.IsSink(s, int(m.id)) {
			continue
		}
		m.queues[s].Step(m.arr[s], m.svc[s])
	}
	m.applyEnergy()
}

// applyEnergy executes the slot's EnergyCommand against the real
// battery. Commands computed from stale views may be infeasible here, so
// each physical constraint is enforced in turn — but only beyond the
// solver's own tolerance, so feasible commands pass through bit-exact.
// A missing command leaves the battery idle (the node cannot know its
// commanded split) and is counted, not guessed.
func (m *NodeMachine) applyEnergy() {
	if m.cmd == nil {
		m.missedSlot++
		m.cumMissedCmds++
		return
	}
	r2d, r2b := m.cmd.RenewToDemand, m.cmd.RenewToBattery
	g2d, g2b := m.cmd.GridToDemand, m.cmd.GridToBattery
	disc := m.cmd.DischargeWh

	clamped := false
	clampNeg := func(e *units.Energy) {
		if *e < 0 {
			if *e < -cmdTol {
				clamped = true
			}
			*e = 0
		}
	}
	clampNeg(&r2d)
	clampNeg(&r2b)
	clampNeg(&g2d)
	clampNeg(&g2b)
	clampNeg(&disc)

	// (14): no grid flow while disconnected from the grid.
	if !m.connected && g2d+g2b > cmdTol {
		g2d, g2b = 0, 0
		clamped = true
	}
	// (3): renewable use cannot exceed the true harvest; shed the
	// battery charge share first, then the demand share.
	if excess := (r2d + r2b) - m.renewWh; excess > cmdTol {
		if r2b >= excess {
			r2b -= excess
		} else {
			excess -= r2b
			r2b = 0
			if r2d > excess {
				r2d -= excess
			} else {
				r2d = 0
			}
		}
		clamped = true
	}
	// (9): charge and discharge are exclusive; keep the larger side.
	charge := r2b + g2b
	if charge > cmdTol && disc > cmdTol {
		if charge >= disc {
			disc = 0
		} else {
			r2b, g2b = 0, 0
			charge = 0
		}
		clamped = true
	}
	// (11)/(12): battery headrooms against the true level.
	if head := m.battery.ChargeHeadroom(); charge > head+cmdTol {
		// Shed grid charge first, then renewable charge.
		over := charge - head
		if g2b >= over {
			g2b -= over
		} else {
			over -= g2b
			g2b = 0
			if r2b > over {
				r2b -= over
			} else {
				r2b = 0
			}
		}
		charge = r2b + g2b
		clamped = true
	}
	if head := m.battery.DischargeHeadroom(); disc > head+cmdTol {
		disc = head
		clamped = true
	}
	if clamped {
		m.clampsSlot++
		m.cumClamps++
	}

	// True deficit: commanded demand not covered by the executed split.
	if short := m.cmd.DemandWh - (r2d + g2d + disc); short > 0 {
		m.cumDeficitWh += short
	}

	if m.checks {
		if err := m.checkEnergy(r2d, r2b, g2d, g2b, disc, clamped); err != nil {
			m.fail(err)
			return
		}
	}
	if err := m.battery.Step(charge, disc); err != nil {
		m.fail(fmt.Errorf("machine: node %d slot %d: battery after clamps: %w", m.id, m.slot, err))
	}
}

// checkEnergy validates the executed (post-clamp) energy split against
// the node's true physical state — the per-node-view variants of the
// invariant checker's eq. (2)/(9)–(14) constraints. A violation here is
// a clamping bug, never a network condition.
func (m *NodeMachine) checkEnergy(r2d, r2b, g2d, g2b, disc units.Energy, clamped bool) error {
	viol := func(eq, msg string, args ...any) error {
		return &invariant.Violation{Slot: m.slot, Node: int(m.id), Eq: eq,
			Msg: "node-view: " + fmt.Sprintf(msg, args...)}
	}
	if r2d+r2b > m.renewWh+cmdTol {
		return viol("(3)", "renewable use %v exceeds true harvest %v", r2d+r2b, m.renewWh)
	}
	if g2d < 0 || g2b < 0 || r2d < 0 || r2b < 0 || disc < 0 {
		return viol("(5)", "negative energy split after clamps")
	}
	charge := r2b + g2b
	if charge > cmdTol && disc > cmdTol {
		return viol("(9)", "simultaneous charge %v and discharge %v", charge, disc)
	}
	if head := m.battery.ChargeHeadroom(); charge > head+cmdTol {
		return viol("(11)", "charge %v exceeds true headroom %v", charge, head)
	}
	if head := m.battery.DischargeHeadroom(); disc > head+cmdTol {
		return viol("(12)", "discharge %v exceeds true headroom %v", disc, head)
	}
	if draw := g2d + g2b; draw > cmdTol {
		if !m.connected {
			return viol("(14)", "grid draw %v while disconnected", draw)
		}
		if cap := m.net.Nodes[m.id].Spec.Grid.MaxDrawWh; draw > cap+cmdTol {
			return viol("(14)", "grid draw %v exceeds cap %v", draw, cap)
		}
	}
	// (2): an unclamped command must balance its own demand claim.
	if !clamped {
		if short := m.cmd.DemandWh - (r2d + g2d + disc + m.cmd.DeficitWh); short > cmdTol {
			return viol("(2)", "unclamped command leaves demand %v short by %v", m.cmd.DemandWh, short)
		}
	}
	return nil
}

// fail records the node's first fatal error.
func (m *NodeMachine) fail(err error) {
	if m.err == nil {
		m.err = err
	}
}
