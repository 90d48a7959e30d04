package machine

import (
	"fmt"

	"greencell/internal/core"
	"greencell/internal/rng"
	"greencell/internal/topology"
	"greencell/internal/units"
)

// viewEnv is the coordinator's core.Environment: instead of sampling the
// physical processes it replays the coordinator's current belief — band
// widths from SpectrumObs, per-node renewables and grid connectivity
// from the latest gossip. It ignores the randomness stream entirely; the
// physical truth is drawn once per slot by the Deployment.
type viewEnv struct {
	widths []units.Bandwidth
	renew  []units.Energy
	conn   []bool
}

// Observe implements core.Environment.
func (e *viewEnv) Observe(int, *rng.Source, *topology.Network) core.Observation {
	return core.Observation{
		Widths:    append([]units.Bandwidth(nil), e.widths...),
		RenewWh:   append([]units.Energy(nil), e.renew...),
		Connected: append([]bool(nil), e.conn...),
	}
}

// gossipView is the coordinator's record of one node's freshest gossip.
type gossipView struct {
	slot      int
	q         []float64
	batteryWh units.Energy
	renewWh   units.Energy
	connected bool
	delivered float64
	deficitWh units.Energy
	clamps    int
	missed    int
}

// CoordinatorMachine re-derives the monolith's S1–S4 decisions from
// received node state. It embeds a full core.Controller operating on the
// coordinator's VIEW of the system: before each decide it overwrites the
// view with every unapplied gossip (freshest stamp wins, node order,
// never re-importing older stamps — re-imports would erase newer
// predictions), then runs the embedded Step, whose own queue/battery
// updates serve as the view's forward prediction for nodes whose gossip
// is lost. Under a perfect network the view equals the truth bitwise
// every slot, so the embedded Step IS the monolith computation — the
// fidelity gate's mechanism.
type CoordinatorMachine struct {
	id   NodeID
	ctrl *core.Controller
	env  *viewEnv
	net  *topology.Network

	slotSrc   *rng.Source
	userCheck func(*core.SlotCheck) error

	latest  []gossipView
	applied []int

	widths     []units.Bandwidth
	widthsSlot int

	outbox    []Message
	lastRes   *core.SlotResult
	staleSlot int

	err error
}

// newCoordinator builds the coordinator and its embedded view
// controller. cfg is the monolith configuration; its Env and Check are
// replaced by the coordinator's view environment and command-capture
// hook (the original Check chains behind the capture).
func newCoordinator(cfg core.Config, seed int64) (*CoordinatorMachine, error) {
	net := cfg.Net
	n := net.NumNodes()
	env := &viewEnv{
		renew: make([]units.Energy, n),
		conn:  make([]bool, n),
	}
	for i := 0; i < n; i++ {
		// Initial connectivity guess before any gossip: the spec's
		// deterministic part. Irrelevant for fidelity — slot 0 gossip
		// overwrites it under a perfect network.
		g := net.Nodes[i].Spec.Grid
		env.conn[i] = g.MaxDrawWh > 0 && g.AlwaysOn
	}
	c := &CoordinatorMachine{
		id:         NodeID(n),
		env:        env,
		net:        net,
		slotSrc:    rng.New(seed).Split("slots"),
		userCheck:  cfg.Check,
		latest:     make([]gossipView, n),
		applied:    make([]int, n),
		widthsSlot: -1,
	}
	for i := range c.latest {
		c.latest[i] = gossipView{
			slot:      -1,
			q:         nil, // nothing to import until first gossip
			batteryWh: net.Nodes[i].Spec.BatteryInitWh,
		}
		c.applied[i] = -1
	}
	ecfg := cfg
	ecfg.Env = env
	ecfg.Check = c.capture
	ctrl, err := core.New(ecfg)
	if err != nil {
		return nil, err
	}
	c.ctrl = ctrl
	return c, nil
}

// ID implements Machine.
func (c *CoordinatorMachine) ID() NodeID { return c.id }

// InitialMessages implements Machine.
func (c *CoordinatorMachine) InitialMessages() []Message { return nil }

// Err returns the first fatal coordinator condition (an embedded Step
// error — including invariant violations — or a protocol error).
func (c *CoordinatorMachine) Err() error { return c.err }

// Controller exposes the embedded view controller (drift constants,
// backlog accessors) to the runner and to sim's aggregation loop.
func (c *CoordinatorMachine) Controller() *core.Controller { return c.ctrl }

// Handle implements Machine.
func (c *CoordinatorMachine) Handle(msg Message) []Message {
	switch v := msg.(type) {
	case StateGossip:
		i := int(v.From())
		if i < 0 || i >= len(c.latest) {
			c.fail(fmt.Errorf("machine: gossip from unknown node %d", i))
			return nil
		}
		if v.Slot > c.latest[i].slot {
			c.latest[i] = gossipView{
				slot:      v.Slot,
				q:         v.Q,
				batteryWh: v.BatteryWh,
				renewWh:   v.RenewWh,
				connected: v.Connected,
				delivered: v.CumDeliveredPkts,
				deficitWh: v.CumDeficitWh,
				clamps:    v.CumClamps,
				missed:    v.CumMissedCmds,
			}
		}
	case SpectrumObs:
		if v.Slot >= c.widthsSlot {
			c.widths = v.Widths
			c.widthsSlot = v.Slot
		}
	case phaseMark:
		if v.Phase == phaseDecide {
			return c.decide(v.Slot)
		}
	}
	return nil
}

// decide imports every unapplied gossip into the view (node order,
// freshest stamp wins), counts stale views, and runs the embedded
// controller's Step. The slot's commands are built inside the Step by
// the capture hook and returned here.
func (c *CoordinatorMachine) decide(slot int) []Message {
	if c.err != nil {
		return nil
	}
	c.staleSlot = 0
	for i := range c.latest {
		g := &c.latest[i]
		if g.slot != slot {
			c.staleSlot++
		}
		if g.slot > c.applied[i] {
			if err := c.ctrl.ImportNodeView(i, g.q, g.batteryWh); err != nil {
				c.fail(err)
				return nil
			}
			c.env.renew[i] = g.renewWh
			c.env.conn[i] = g.connected
			c.applied[i] = g.slot
		}
	}
	if c.widthsSlot != slot {
		c.fail(fmt.Errorf("machine: coordinator missing spectrum observation for slot %d", slot))
		return nil
	}
	c.env.widths = c.widths

	c.outbox = nil
	res, err := c.ctrl.Step(c.slotSrc)
	if err != nil {
		c.fail(err)
		return nil
	}
	if c.staleSlot > 0 {
		res.Degraded = true
		res.DegradedCauses = append(res.DegradedCauses, CauseNetStale)
	}
	c.lastRes = res
	out := c.outbox
	c.outbox = nil
	return out
}

// capture is the embedded controller's Check hook: it runs at the end of
// every Step with the slot's full decision snapshot, from which it
// builds the outgoing command messages (copying everything it keeps —
// the snapshot's slices are only valid during the callback). The
// original invariant checker, when configured, chains behind it.
func (c *CoordinatorMachine) capture(chk *core.SlotCheck) error {
	c.buildCommands(chk)
	if c.userCheck != nil {
		return c.userCheck(chk)
	}
	return nil
}

// buildCommands turns a slot snapshot into the per-node command fan-out:
// for each node ascending, its schedule grant, flow update, admission
// offer (when it sources sessions this slot), energy command, and the
// price broadcast. Deterministic order keeps the per-edge delivery draws
// aligned across runs.
func (c *CoordinatorMachine) buildCommands(chk *core.SlotCheck) {
	n := c.net.NumNodes()
	S := len(chk.Admit)

	// Group admissions by the slot's source node.
	srcSessions := make([][]int, n)
	for s := 0; s < S; s++ {
		src := chk.Source[s]
		if src >= 0 && src < n {
			srcSessions[src] = append(srcSessions[src], s)
		}
	}

	for i := 0; i < n; i++ {
		to := header{from: c.id, to: NodeID(i)}
		out := c.net.OutLinks(i)

		if chk.Assignment != nil {
			grant := ScheduleGrant{
				header:   to,
				Slot:     chk.Slot,
				Links:    append([]int(nil), out...),
				Bands:    make([]int, len(out)),
				Activity: make([]float64, len(out)),
			}
			for k, l := range out {
				grant.Bands[k] = chk.Assignment.LinkBand[l]
				grant.Activity[k] = chk.Assignment.Activity[l]
			}
			c.outbox = append(c.outbox, grant)
		}

		if chk.Flow != nil {
			fu := FlowUpdate{
				header:   to,
				Slot:     chk.Slot,
				Links:    append([]int(nil), out...),
				FlowPkts: make([][]float64, len(out)),
			}
			// The rows share one slab, each capped at its length: a
			// duplicated delivery hands the same rows to the node twice.
			n := 0
			for _, l := range out {
				n += len(chk.Flow[l])
			}
			slab := make([]float64, 0, n)
			for k, l := range out {
				start := len(slab)
				slab = append(slab, chk.Flow[l]...)
				fu.FlowPkts[k] = slab[start:len(slab):len(slab)]
			}
			c.outbox = append(c.outbox, fu)
		}

		if len(srcSessions[i]) > 0 {
			offer := AdmissionOffer{
				header:   to,
				Slot:     chk.Slot,
				Sessions: append([]int(nil), srcSessions[i]...),
			}
			offer.AdmitPkts = make([]float64, len(offer.Sessions))
			for k, s := range offer.Sessions {
				offer.AdmitPkts[k] = chk.Admit[s]
			}
			c.outbox = append(c.outbox, offer)
		}

		if chk.Energy != nil && i < len(chk.Energy.Nodes) {
			nd := chk.Energy.Nodes[i]
			c.outbox = append(c.outbox, EnergyCommand{
				header:         to,
				Slot:           chk.Slot,
				RenewToDemand:  nd.RenewToDemand,
				RenewToBattery: nd.RenewToBattery,
				GridToDemand:   nd.GridToDemand,
				GridToBattery:  nd.GridToBattery,
				DischargeWh:    nd.DischargeWh,
				DeficitWh:      nd.DeficitWh,
				DemandWh:       chk.DemandWh[i],
			})
			c.outbox = append(c.outbox, EnergyPrice{
				header:  to,
				Slot:    chk.Slot,
				PriceWh: chk.Energy.MarginalPriceWh,
			})
		}
	}
}

// fail records the coordinator's first fatal error.
func (c *CoordinatorMachine) fail(err error) {
	if c.err == nil {
		c.err = err
	}
}
