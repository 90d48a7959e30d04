package machine

import (
	"fmt"
	"sort"
	"strconv"

	"greencell/internal/faultinject"
	"greencell/internal/rng"
)

// ticksPerSlot is the protocol depth of one slot: observe, decide,
// execute, settle. A message sent during one round is due the next round
// at the earliest, so a zero-latency network still has the causal
// structure of a real one — gossip sent at observe arrives for decide,
// commands sent at decide arrive for execute.
const ticksPerSlot = 4

// DeliveryModel parameterizes one directed edge's control-plane delivery
// behavior. The zero value is the perfect network.
type DeliveryModel struct {
	// LossProb drops a message entirely.
	LossProb float64
	// DelayProb holds a message back by extra ticks drawn uniformly from
	// [1, MaxDelayTicks] (MaxDelayTicks < 1 reads as 1).
	DelayProb float64
	// MaxDelayTicks bounds the extra delay of a delayed message.
	MaxDelayTicks int
	// DupProb delivers a second copy one tick after the first.
	DupProb float64
	// ReorderWindow jitters the within-tick delivery order: each message
	// gets a sort-key offset drawn from [0, ReorderWindow].
	ReorderWindow int
}

// Ideal reports whether the model can never perturb a delivery.
func (m DeliveryModel) Ideal() bool {
	return m.LossProb <= 0 && m.DelayProb <= 0 && m.DupProb <= 0 && m.ReorderWindow <= 0
}

// Validate rejects out-of-range parameters.
func (m DeliveryModel) Validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{{"LossProb", m.LossProb}, {"DelayProb", m.DelayProb}, {"DupProb", m.DupProb}} {
		if p.v < 0 || p.v > 1 {
			return fmt.Errorf("machine: DeliveryModel.%s = %v outside [0,1]", p.name, p.v)
		}
	}
	if m.MaxDelayTicks < 0 {
		return fmt.Errorf("machine: DeliveryModel.MaxDelayTicks = %d negative", m.MaxDelayTicks)
	}
	if m.ReorderWindow < 0 {
		return fmt.Errorf("machine: DeliveryModel.ReorderWindow = %d negative", m.ReorderWindow)
	}
	return nil
}

// NetSlotCounters are the fabric's per-slot message counters.
type NetSlotCounters struct {
	// Sent counts control-plane sends (before any loss).
	Sent int
	// Dropped, Delayed, Duped count the model's and the injector's
	// perturbations of control-plane messages.
	Dropped, Delayed, Duped int
	// DataMsgs counts reliable data-plane transfers.
	DataMsgs int
}

// envelope is one scheduled delivery.
type envelope struct {
	seq    int
	jitter int
	msg    Message
}

// edgeKey identifies a directed edge's per-slot delivery stream.
type edgeKey struct {
	from, to NodeID
}

// Network is the deterministic simulated message fabric. It owns the
// machines, advances in ticks (ticksPerSlot per slot), and applies the
// delivery model to every control-plane send: the draws for a message on
// edge (i→j) during slot t come from the sub-stream Split("e%d>%d#%d"),
// so the firing pattern is a pure function of (seed, edge, slot) — two
// runs with the same seed and model replay the identical schedule, and
// perturbing one edge's traffic cannot shift another edge's draws.
type Network struct {
	model     DeliveryModel
	edgeModel func(from, to NodeID) DeliveryModel
	inj       *faultinject.Injector
	root      *rng.Source
	machines  []Machine

	tick    int
	slot    int
	seq     int
	pending map[int][]envelope
	streams map[edgeKey]*rng.Source
	name    []byte // edgeStream's name buffer
	stats   NetSlotCounters

	// Per-slot injector overlay (slot-wide outages; faultinject.NetDrop
	// and friends).
	dropAll  bool
	delayAll int
	dupAll   bool

	err error
}

// NewNetwork builds the fabric over the given machines, indexed by their
// NodeID (machines[i].ID() must equal i). edgeModel, when non-nil,
// overrides the base model per directed edge. inj may be nil.
func NewNetwork(model DeliveryModel, edgeModel func(from, to NodeID) DeliveryModel,
	inj *faultinject.Injector, src *rng.Source, machines []Machine) (*Network, error) {
	if err := model.Validate(); err != nil {
		return nil, err
	}
	for i, m := range machines {
		if m == nil {
			return nil, fmt.Errorf("machine: nil machine at index %d", i)
		}
		if m.ID() != NodeID(i) {
			return nil, fmt.Errorf("machine: machine at index %d has ID %d", i, m.ID())
		}
	}
	return &Network{
		model:     model,
		edgeModel: edgeModel,
		inj:       inj,
		root:      src,
		machines:  machines,
		pending:   make(map[int][]envelope),
		streams:   make(map[edgeKey]*rng.Source),
	}, nil
}

// Start routes every machine's bootstrap messages, in machine order.
// Call it once, after the first BeginSlot.
func (n *Network) Start() {
	for _, m := range n.machines {
		n.route(m.InitialMessages())
	}
}

// BeginSlot opens a slot: it aligns the tick counter, resets the slot's
// delivery streams and counters, and samples the injector's slot-wide
// network outages.
func (n *Network) BeginSlot(slot int) {
	n.slot = slot
	n.tick = slot * ticksPerSlot
	clear(n.streams)
	n.stats = NetSlotCounters{}
	n.dropAll = n.inj.Fires(faultinject.NetDrop, slot)
	n.delayAll = 0
	if n.inj.Fires(faultinject.NetDelay, slot) {
		max := n.model.MaxDelayTicks
		if max < 1 {
			max = 1
		}
		n.delayAll = 1 + n.inj.Index(faultinject.NetDelay, slot, max)
	}
	n.dupAll = n.inj.Fires(faultinject.NetDup, slot)
}

// Deliver dispatches every message due at the current tick, in
// deterministic order: receivers ascending, then send sequence perturbed
// by the model's reorder jitter. Messages a handler emits are routed
// immediately (and so are due at a strictly later tick).
func (n *Network) Deliver() {
	due := n.pending[n.tick]
	if len(due) == 0 {
		return
	}
	delete(n.pending, n.tick)
	sort.SliceStable(due, func(a, b int) bool {
		ea, eb := due[a], due[b]
		if ea.msg.To() != eb.msg.To() {
			return ea.msg.To() < eb.msg.To()
		}
		return ea.seq+ea.jitter < eb.seq+eb.jitter
	})
	for _, e := range due {
		n.dispatch(e.msg)
	}
}

// Advance moves to the next tick and delivers what is due there.
func (n *Network) Advance() {
	n.tick++
	n.Deliver()
}

// Inject dispatches a runner-originated message synchronously — phase
// marks and physical observations never ride the lossy fabric.
func (n *Network) Inject(msg Message) {
	n.dispatch(msg)
}

// Stats returns the slot's counters so far.
func (n *Network) Stats() NetSlotCounters { return n.stats }

// Err returns the first routing error (a message addressed outside the
// machine set — always a programming error, never a network condition).
func (n *Network) Err() error { return n.err }

// dispatch hands one message to its destination machine and routes the
// response messages.
func (n *Network) dispatch(msg Message) {
	to := msg.To()
	if to < 0 || int(to) >= len(n.machines) {
		if n.err == nil {
			n.err = fmt.Errorf("machine: message %T addressed to unknown machine %d", msg, to)
		}
		return
	}
	n.route(n.machines[to].Handle(msg))
}

// route schedules machine-emitted messages in emission order.
func (n *Network) route(msgs []Message) {
	for _, msg := range msgs {
		n.send(msg)
	}
}

// send schedules one machine-emitted message. Data-plane transfers are
// reliable and due next tick; control-plane messages run the delivery
// gauntlet. The draw order per message is fixed — loss, delay, delay
// magnitude, reorder jitter, duplication — and each draw happens only
// when its probability is positive, so an ideal edge consumes no
// randomness at all.
func (n *Network) send(msg Message) {
	if _, ok := msg.(PacketTransfer); ok {
		n.stats.DataMsgs++
		n.enqueue(n.tick+1, 0, msg)
		return
	}
	n.stats.Sent++
	if n.dropAll {
		n.stats.Dropped++
		return
	}
	m := n.modelFor(msg.From(), msg.To())
	ideal := m.Ideal()
	if ideal && n.delayAll == 0 && !n.dupAll {
		n.enqueue(n.tick+1, 0, msg)
		return
	}
	var src *rng.Source
	if !ideal {
		src = n.edgeStream(msg.From(), msg.To())
	}
	if m.LossProb > 0 && src.Bernoulli(m.LossProb) {
		n.stats.Dropped++
		return
	}
	at := n.tick + 1
	delayed := false
	if m.DelayProb > 0 && src.Bernoulli(m.DelayProb) {
		max := m.MaxDelayTicks
		if max < 1 {
			max = 1
		}
		at += 1 + src.Intn(max)
		delayed = true
	}
	if n.delayAll > 0 {
		at += n.delayAll
		delayed = true
	}
	if delayed {
		n.stats.Delayed++
	}
	jitter := 0
	if m.ReorderWindow > 0 {
		jitter = src.Intn(m.ReorderWindow + 1)
	}
	n.enqueue(at, jitter, msg)
	if n.dupAll || (m.DupProb > 0 && src.Bernoulli(m.DupProb)) {
		n.stats.Duped++
		n.enqueue(at+1, jitter, msg)
	}
}

// enqueue schedules a delivery.
func (n *Network) enqueue(at, jitter int, msg Message) {
	e := envelope{seq: n.seq, jitter: jitter, msg: msg}
	n.seq++
	n.pending[at] = append(n.pending[at], e)
}

// modelFor resolves the delivery model of a directed edge.
func (n *Network) modelFor(from, to NodeID) DeliveryModel {
	if n.edgeModel != nil {
		return n.edgeModel(from, to)
	}
	return n.model
}

// edgeStream returns the (edge, slot) delivery sub-stream, created on
// first use within the slot. The map is keyed access only — never
// iterated — so delivery determinism cannot depend on map order.
func (n *Network) edgeStream(from, to NodeID) *rng.Source {
	key := edgeKey{from: from, to: to}
	s, ok := n.streams[key]
	if !ok {
		// The bytes of fmt.Sprintf("e%d>%d#%d", from, to, n.slot).
		b := append(n.name[:0], 'e')
		b = strconv.AppendInt(b, int64(from), 10)
		b = append(b, '>')
		b = strconv.AppendInt(b, int64(to), 10)
		b = append(b, '#')
		b = strconv.AppendInt(b, int64(n.slot), 10)
		n.name = b
		s = n.root.Split(string(b))
		n.streams[key] = s
	}
	return s
}
