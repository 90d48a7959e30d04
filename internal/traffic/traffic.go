// Package traffic models the downlink Internet service sessions of the
// paper's Section II-A: each session s is a tuple {d_s, v_s(t), s_s(t)}
// with destination d_s, per-slot required throughput v_s(t) in packets, and
// a source base station s_s(t) chosen dynamically by the controller's
// resource-allocation subproblem S2.
package traffic

import (
	"errors"
	"fmt"
	"math"

	"greencell/internal/rng"
)

// DefaultPacketBits is δ, the number of bits per packet, when a Model does
// not override it (150 KB frames — the value that puts the paper's
// Lyapunov constant B on the same relative scale against the cost axis as
// in its Fig. 2(a); see EXPERIMENTS.md).
const DefaultPacketBits = 1.2e6

// DefaultDemandBitsPerSec is the per-session demand used by PaperSessions.
// The paper states 100 Kbps; we use 500 Kbps so the offered load is a
// meaningful fraction (~25%) of a link's 2 Mbps capacity — at 5% duty the
// transmission-energy differences between architectures that Fig. 2(f)
// plots are lost in the fixed-power noise (see EXPERIMENTS.md).
const DefaultDemandBitsPerSec = 500e3

// DemandPattern shapes a session's demand over time; Factor multiplies the
// base demand at each slot. It extends the paper's constant v_s(t) with
// time-varying load (e.g. diurnal traffic).
type DemandPattern interface {
	// Factor returns the demand multiplier at the given slot (>= 0).
	Factor(slot int) float64
	// MaxFactor bounds Factor over all slots; it sizes admission caps.
	MaxFactor() float64
}

// Sinusoid is a demand pattern 1 + Amplitude·sin(2π·slot/PeriodSlots),
// clamped at zero.
type Sinusoid struct {
	// Amplitude is the relative swing (0.5 = ±50%).
	Amplitude float64
	// PeriodSlots is the cycle length in slots.
	PeriodSlots int
}

// Factor implements DemandPattern.
func (s Sinusoid) Factor(slot int) float64 {
	period := s.PeriodSlots
	if period <= 0 {
		period = 1
	}
	f := 1 + s.Amplitude*math.Sin(2*math.Pi*float64(slot%period)/float64(period))
	if f < 0 {
		return 0
	}
	return f
}

// MaxFactor implements DemandPattern.
func (s Sinusoid) MaxFactor() float64 { return 1 + math.Abs(s.Amplitude) }

// Burst is a square-wave demand pattern: OnFactor for the first
// DutyFrac·PeriodSlots slots of each period, zero for the rest — bursty
// traffic such as periodic bulk transfers.
type Burst struct {
	// PeriodSlots is the cycle length.
	PeriodSlots int
	// DutyFrac is the ON fraction of each cycle, in (0, 1].
	DutyFrac float64
	// OnFactor is the demand multiplier while ON.
	OnFactor float64
}

// Factor implements DemandPattern.
func (b Burst) Factor(slot int) float64 {
	period := b.PeriodSlots
	if period <= 0 {
		period = 1
	}
	if float64(slot%period) < b.DutyFrac*float64(period) {
		return b.OnFactor
	}
	return 0
}

// MaxFactor implements DemandPattern.
func (b Burst) MaxFactor() float64 { return b.OnFactor }

var (
	_ DemandPattern = Sinusoid{}
	_ DemandPattern = Burst{}
)

// Session is one service session. The paper models downlink only
// (Internet → base station → user); the Uplink extension reverses the
// direction: packets originate at a fixed user and count as delivered on
// reaching *any* base station (anycast), mirroring how uplink traffic
// exits through whichever BS is closest in queue terms.
type Session struct {
	ID int
	// Dest is d_s, the destination node (ignored for uplink sessions).
	Dest int
	// Uplink marks a user-to-infrastructure session; Source is then the
	// fixed originating user.
	Uplink bool
	// Source is the originating user of an uplink session.
	Source int
	// DemandPkts is the base per-slot required throughput v_s in packets
	// (constant in the paper's simulation).
	DemandPkts float64
	// MaxAdmission is K_s^max, the cap on packets the source base station
	// may admit from the Internet per slot.
	MaxAdmission float64
	// Pattern optionally modulates the demand over time (nil = constant).
	Pattern DemandPattern
}

// DemandAt returns v_s(t) for the given slot.
func (s Session) DemandAt(slot int) float64 {
	if s.Pattern == nil {
		return s.DemandPkts
	}
	return s.DemandPkts * s.Pattern.Factor(slot)
}

// PeakDemand returns the largest possible v_s(t).
func (s Session) PeakDemand() float64 {
	if s.Pattern == nil {
		return s.DemandPkts
	}
	return s.DemandPkts * s.Pattern.MaxFactor()
}

// Model is the set of sessions plus shared packet parameters.
type Model struct {
	Sessions []Session
	// PacketBits is δ, bits per packet.
	PacketBits float64
}

// ErrTraffic reports an invalid traffic model.
var ErrTraffic = errors.New("traffic: invalid model")

// Validate checks internal consistency.
func (m *Model) Validate(numNodes int) error {
	if m.PacketBits <= 0 {
		return fmt.Errorf("%w: PacketBits = %v", ErrTraffic, m.PacketBits)
	}
	for _, s := range m.Sessions {
		if !s.Uplink && (s.Dest < 0 || s.Dest >= numNodes) {
			return fmt.Errorf("%w: session %d destination %d out of range", ErrTraffic, s.ID, s.Dest)
		}
		if s.Uplink && (s.Source < 0 || s.Source >= numNodes) {
			return fmt.Errorf("%w: uplink session %d source %d out of range", ErrTraffic, s.ID, s.Source)
		}
		if s.DemandPkts < 0 || s.MaxAdmission < 0 {
			return fmt.Errorf("%w: session %d has negative demand or admission", ErrTraffic, s.ID)
		}
		if s.MaxAdmission < s.DemandPkts {
			return fmt.Errorf("%w: session %d admission cap %v below demand %v (cannot sustain)",
				ErrTraffic, s.ID, s.MaxAdmission, s.DemandPkts)
		}
	}
	return nil
}

// NumSessions returns the session count.
func (m *Model) NumSessions() int { return len(m.Sessions) }

// SinkTable is the sink rule of a model's sessions materialized over a
// network's nodes: a node is a delivery point of session s if it is the
// session's destination (downlink) or any base station (uplink, anycast).
type SinkTable struct {
	nodes int
	sink  []bool // sink[s*nodes+node]
}

// SinkTable builds m's sink table over numNodes nodes; isBS reports
// whether a node is a base station.
func (m *Model) SinkTable(numNodes int, isBS func(node int) bool) SinkTable {
	t := SinkTable{nodes: numNodes, sink: make([]bool, len(m.Sessions)*numNodes)}
	for s, sess := range m.Sessions {
		for node := 0; node < numNodes; node++ {
			if sess.Uplink {
				t.sink[s*numNodes+node] = isBS(node)
			} else {
				t.sink[s*numNodes+node] = node == sess.Dest
			}
		}
	}
	return t
}

// IsSink reports whether node is a delivery point of session s.
func (t SinkTable) IsSink(s, node int) bool { return t.sink[s*t.nodes+node] }

// DemandPktsPerSlot converts a bit-rate demand into packets per slot.
func DemandPktsPerSlot(bitsPerSec, slotSeconds, packetBits float64) float64 {
	return bitsPerSec * slotSeconds / packetBits
}

// UplinkSessions builds n uplink sessions (user → any base station) with
// DefaultDemandBitsPerSec demand, originating at distinct random users.
// IDs start at firstID so the model can mix uplink and downlink sessions.
func UplinkSessions(n int, users []int, slotSeconds float64, firstID int, src *rng.Source) []Session {
	if n > len(users) {
		n = len(users)
	}
	demand := DemandPktsPerSlot(DefaultDemandBitsPerSec, slotSeconds, DefaultPacketBits)
	var out []Session
	for i, k := range src.Subset(len(users), n) {
		out = append(out, Session{
			ID:           firstID + i,
			Uplink:       true,
			Source:       users[k],
			DemandPkts:   demand,
			MaxAdmission: demand,
		})
	}
	return out
}

// PaperSessions builds n sessions with DefaultDemandBitsPerSec demand, each
// destined to a distinct uniformly random user drawn from users. slotSeconds
// is the slot duration. The admission cap K_s^max equals the demand: the
// bang-bang admission rule of S2 then injects exactly the sustainable load
// whenever the source backlog is below λV.
func PaperSessions(n int, users []int, slotSeconds float64, src *rng.Source) *Model {
	if n > len(users) {
		n = len(users)
	}
	demand := DemandPktsPerSlot(DefaultDemandBitsPerSec, slotSeconds, DefaultPacketBits)
	m := &Model{PacketBits: DefaultPacketBits}
	for i, k := range src.Subset(len(users), n) {
		m.Sessions = append(m.Sessions, Session{
			ID:           i,
			Dest:         users[k],
			DemandPkts:   demand,
			MaxAdmission: demand,
		})
	}
	return m
}
