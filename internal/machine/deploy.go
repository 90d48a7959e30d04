package machine

import (
	"fmt"
	"sort"

	"greencell/internal/core"
	"greencell/internal/faultinject"
	"greencell/internal/rng"
	"greencell/internal/traffic"
	"greencell/internal/units"
)

// Config assembles a distributed deployment.
type Config struct {
	// Core is the monolith controller configuration the deployment
	// distributes. Its Env (nil = DefaultEnvironment) samples the
	// physical truth; its Check (when set) runs both inside the
	// coordinator's embedded controller and as node-local checks.
	Core core.Config
	// Traffic duplicates Core.Traffic for the node machines (kept
	// explicit so a caller can't accidentally desynchronize them).
	Traffic *traffic.Model
	// Seed seeds the truth observation stream ("slots", identical to the
	// monolith's), the coordinator's embedded stream, and the network
	// fabric ("net").
	Seed int64
	// Model is the control-plane delivery model for every edge.
	Model DeliveryModel
	// EdgeModel, when non-nil, overrides Model per directed edge.
	EdgeModel func(from, to NodeID) DeliveryModel
	// Offline lists node IDs replaced by OfflineMachine (dead or
	// partitioned nodes).
	Offline []int
	// Hook, when non-nil, observes every slot's network statistics.
	Hook func(SlotNetStats)
}

// SlotNetStats is one slot's network-and-staleness report, delivered to
// Config.Hook after the slot settles.
type SlotNetStats struct {
	Slot int
	// Ideal marks a deployment that can never deviate from the perfect
	// network (zero-perturbation model, no offline nodes, no net fault
	// sites armed). The metrics layer uses it to keep ideal distributed
	// streams byte-identical to the monolith's.
	Ideal bool
	// Control-plane fabric counters.
	Sent, Dropped, Delayed, Duped int
	// DataMsgs counts reliable data-plane transfers.
	DataMsgs int
	// Late counts commands discarded at nodes for arriving after their
	// point of use; MissedCmds counts slots a node settled without any
	// energy command.
	Late, MissedCmds int
	// StaleViews is how many node views the coordinator decided this
	// slot without current-slot gossip for.
	StaleViews int
	// NodeClamps is how many nodes had to clamp an infeasible command
	// against their true physical state.
	NodeClamps int
}

// NetReport aggregates a whole distributed run. Unlike the metrics
// stream — which reports the coordinator's belief, since the embedded
// controller computes it — the True* fields are physical ground truth
// collected directly from the node machines.
type NetReport struct {
	MsgsSent, MsgsDropped, MsgsDelayed, MsgsDuped int
	DataMsgs                                      int
	MsgsLate, MissedCmds                          int
	// StaleViews sums per-slot stale node views; StaleSlots counts slots
	// with at least one (the slots marked CauseNetStale).
	StaleViews, StaleSlots int
	// NodeClamps counts infeasible commands repaired at nodes.
	NodeClamps int
	// TrueDeliveredPkts is the packets that actually reached session
	// sinks; TrueDeficitWh the commanded demand nodes could not cover.
	TrueDeliveredPkts float64
	TrueDeficitWh     units.Energy
}

// Deployment wires the machines to the network fabric and drives the
// four-round slot protocol:
//
//	observe — stragglers delivered; the runner injects each node's
//	          LocalObs and the coordinator's SpectrumObs; nodes gossip.
//	decide  — fresh gossip delivered; the coordinator imports views,
//	          runs the embedded S1–S4 Step, and fans out commands.
//	execute — commands delivered; nodes transmit their clamped flows.
//	settle  — transfers (and straggling energy commands) delivered;
//	          nodes fold arrivals into queues and step their batteries.
//
// Every message sent in one round is due the next round at the
// earliest, so the perfect network is simply the schedule where nothing
// is ever late — and the slot decisions coincide with the monolith's.
type Deployment struct {
	cfg      core.Config
	env      core.Environment
	net      *Network
	coord    *CoordinatorMachine
	nodes    []*NodeMachine // nil at offline indices
	truthSrc *rng.Source
	hook     func(SlotNetStats)

	slot    int
	ideal   bool
	started bool
	report  NetReport
	// delivLog is foldDelivered's scratch, reused across slots.
	delivLog []sinkDelivery
}

// NewDeployment validates the configuration and builds the machines.
func NewDeployment(cfg Config) (*Deployment, error) {
	if cfg.Core.Net == nil || cfg.Traffic == nil {
		return nil, fmt.Errorf("machine: deployment needs a network and traffic model")
	}
	if cfg.Core.TrackDelay {
		// Exact per-packet delay FIFOs live inside the embedded
		// controller and cannot be overwritten consistently by view
		// imports under loss.
		return nil, fmt.Errorf("machine: TrackDelay is unsupported in distributed runs")
	}
	if err := cfg.Model.Validate(); err != nil {
		return nil, err
	}
	n := cfg.Core.Net.NumNodes()
	offline := make(map[int]bool, len(cfg.Offline))
	for _, id := range cfg.Offline {
		if id < 0 || id >= n {
			return nil, fmt.Errorf("machine: offline node %d outside [0,%d)", id, n)
		}
		if offline[id] {
			return nil, fmt.Errorf("machine: offline node %d listed twice", id)
		}
		offline[id] = true
	}

	coord, err := newCoordinator(cfg.Core, cfg.Seed)
	if err != nil {
		return nil, err
	}
	checks := cfg.Core.Check != nil
	machines := make([]Machine, n+1)
	nodes := make([]*NodeMachine, n)
	for i := 0; i < n; i++ {
		if offline[i] {
			machines[i] = OfflineMachine{Node: NodeID(i)}
			continue
		}
		nm, err := NewNodeMachine(NodeID(i), coord.ID(), cfg.Core.Net, cfg.Traffic, checks)
		if err != nil {
			return nil, err
		}
		nodes[i] = nm
		machines[i] = nm
	}
	machines[n] = coord

	fabric, err := NewNetwork(cfg.Model, cfg.EdgeModel, cfg.Core.Faults,
		rng.New(cfg.Seed).Split("net"), machines)
	if err != nil {
		return nil, err
	}

	env := cfg.Core.Env
	if env == nil {
		env = core.DefaultEnvironment{}
	}
	inj := cfg.Core.Faults
	ideal := cfg.Model.Ideal() && cfg.EdgeModel == nil && len(cfg.Offline) == 0 &&
		!inj.Active(faultinject.NetDrop) && !inj.Active(faultinject.NetDelay) &&
		!inj.Active(faultinject.NetDup)

	return &Deployment{
		cfg:      cfg.Core,
		env:      env,
		net:      fabric,
		coord:    coord,
		nodes:    nodes,
		truthSrc: rng.New(cfg.Seed).Split("slots"),
		hook:     cfg.Hook,
		ideal:    ideal,
	}, nil
}

// Controller exposes the coordinator's embedded view controller.
func (d *Deployment) Controller() *core.Controller { return d.coord.Controller() }

// Ideal reports whether the deployment can never deviate from the
// perfect network.
func (d *Deployment) Ideal() bool { return d.ideal }

// Step runs one slot of the protocol and returns the coordinator's slot
// result (its view decision, with CauseNetStale appended when it decided
// on stale state).
func (d *Deployment) Step() (*core.SlotResult, error) {
	t := d.slot
	d.net.BeginSlot(t)
	if !d.started {
		d.started = true
		d.net.Start()
	}
	d.net.Deliver() // stragglers due exactly at the slot boundary

	obs := d.observeTruth(t)
	d.net.Inject(SpectrumObs{
		header: header{from: -1, to: d.coord.ID()},
		Slot:   t,
		Widths: obs.Widths,
	})
	for i := range d.nodes {
		d.net.Inject(LocalObs{
			header:    header{from: -1, to: NodeID(i)},
			Slot:      t,
			RenewWh:   obs.RenewWh[i],
			Connected: obs.Connected[i],
		})
	}

	d.net.Advance() // decide round: fresh gossip lands
	d.net.Inject(phaseMark{header: header{from: -1, to: d.coord.ID()}, Slot: t, Phase: phaseDecide})

	d.net.Advance() // execute round: commands land
	for i := range d.nodes {
		d.net.Inject(phaseMark{header: header{from: -1, to: NodeID(i)}, Slot: t, Phase: phaseExecute})
	}

	d.net.Advance() // settle round: transfers and straggling commands land
	for i := range d.nodes {
		d.net.Inject(phaseMark{header: header{from: -1, to: NodeID(i)}, Slot: t, Phase: phaseSettle})
	}

	if err := d.net.Err(); err != nil {
		return nil, err
	}
	if err := d.coord.Err(); err != nil {
		return nil, err
	}
	for _, nm := range d.nodes {
		if nm != nil && nm.Err() != nil {
			return nil, nm.Err()
		}
	}
	d.foldDelivered()
	res := d.coord.lastRes
	if res == nil {
		return nil, fmt.Errorf("machine: slot %d produced no decision", t)
	}
	d.coord.lastRes = nil

	st := SlotNetStats{Slot: t, Ideal: d.ideal, StaleViews: d.coord.staleSlot}
	nc := d.net.Stats()
	st.Sent, st.Dropped, st.Delayed, st.Duped, st.DataMsgs =
		nc.Sent, nc.Dropped, nc.Delayed, nc.Duped, nc.DataMsgs
	for _, nm := range d.nodes {
		if nm == nil {
			continue
		}
		st.Late += nm.lateSlot
		st.MissedCmds += nm.missedSlot
		st.NodeClamps += nm.clampsSlot
	}
	d.fold(st)
	if d.hook != nil {
		d.hook(st)
	}
	d.slot++
	return res, nil
}

// fold accumulates a slot's stats into the run report.
func (d *Deployment) fold(st SlotNetStats) {
	d.report.MsgsSent += st.Sent
	d.report.MsgsDropped += st.Dropped
	d.report.MsgsDelayed += st.Delayed
	d.report.MsgsDuped += st.Duped
	d.report.DataMsgs += st.DataMsgs
	d.report.MsgsLate += st.Late
	d.report.MissedCmds += st.MissedCmds
	d.report.StaleViews += st.StaleViews
	if st.StaleViews > 0 {
		d.report.StaleSlots++
	}
	d.report.NodeClamps += st.NodeClamps
}

// foldDelivered adds the slot's sink arrivals, read from the node
// machines, to the ground-truth delivery total. It sums in the monolith's
// order — per session over its links in ascending order (the controller's
// DeliveredPkts[s]), then session by session (sim.Run's total) — so a
// perfect-network run reproduces the monolith's DeliveredPkts bit for bit
// rather than merely to rounding.
func (d *Deployment) foldDelivered() {
	log := d.delivLog[:0]
	for _, nm := range d.nodes {
		if nm != nil {
			log = append(log, nm.sinkLog...)
		}
	}
	sort.SliceStable(log, func(a, b int) bool {
		if log[a].sess != log[b].sess {
			return log[a].sess < log[b].sess
		}
		return log[a].link < log[b].link
	})
	for k := 0; k < len(log); {
		s, sum := log[k].sess, 0.0
		for ; k < len(log) && log[k].sess == s; k++ {
			sum += log[k].pkts
		}
		d.report.TrueDeliveredPkts += sum
	}
	d.delivLog = log
}

// Report returns the run's aggregated network report, with the ground
// truth collected directly from the node machines.
func (d *Deployment) Report() *NetReport {
	r := d.report
	for _, nm := range d.nodes {
		if nm == nil {
			continue
		}
		r.TrueDeficitWh += nm.cumDeficitWh
	}
	return &r
}

// observeTruth draws the slot's physical observation exactly as the
// monolith would — same environment, same "slots" stream, same injected
// observation faults and repair — so the distributed run's ground truth
// coincides with the monolith's inputs.
func (d *Deployment) observeTruth(t int) core.Observation {
	obs := d.env.Observe(t, d.truthSrc, d.cfg.Net)
	core.PrepareObservation(d.cfg.Faults, t, &obs)
	return obs
}
