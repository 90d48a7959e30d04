// Package routing solves the paper's per-slot routing subproblem S3:
//
//	min Σ_s Σ_(i,j) (−Q_i^s + Q_j^s + β·H_ij) · l_ij^s
//
// subject to the source/destination rules (16)–(18) and the link capacity
// rule (25). Because the objective is a weighted sum and the capacity
// constraint couples only the sessions sharing one link, the optimum
// decomposes per link (Section IV-C3):
//
//   - On a link into a session's destination, ship the demanded v_s(t)
//     (constraint (18)), on the incoming link with the smallest
//     coefficient.
//   - On every other link, give the entire capacity to the session with
//     the most negative coefficient; ship nothing if no coefficient is
//     negative.
//
// Deviation from the paper (documented in DESIGN.md): shipments are capped
// by the link's scheduled capacity even on destination links, since
// literally forcing l = v_s(t) can violate (25) when the link is
// unscheduled or narrow.
package routing

import (
	"errors"
	"fmt"

	"greencell/internal/topology"
)

// Request is one slot's routing problem.
type Request struct {
	Net *topology.Network
	// NumSessions is the session count S.
	NumSessions int
	// Backlog returns Q_i^s(t); it must return 0 for a session's
	// destination (destinations keep no queue — Section III-A).
	Backlog func(sessionIdx, node int) float64
	// H is the scaled virtual queue H_ij(t) per candidate link.
	H []float64
	// Beta is the paper's β = max_{ij} c_ij^max·Δt/δ scaling factor.
	Beta float64
	// CapacityPkts is each link's scheduled capacity this slot, in packets
	// (0 when unscheduled).
	CapacityPkts []float64
	// Dest[s] is d_s; Source[s] is this slot's source node s_s(t).
	Dest, Source []int
	// Sink optionally generalizes the destination test: packets of session
	// s are delivered on reaching any node where Sink(s, node) is true
	// (uplink anycast to the base stations). Nil means node == Dest[s].
	Sink func(sessionIdx, node int) bool
	// DemandPkts[s] is v_s(t).
	DemandPkts []float64
}

// Decision carries the chosen flows.
type Decision struct {
	// Flow[l][s] is l_ij^s(t) in packets on candidate link l.
	Flow [][]float64
}

// FlowOn returns the total flow Σ_s l_ij^s on link l.
func (d *Decision) FlowOn(l int) float64 {
	sum := 0.0
	for _, v := range d.Flow[l] {
		sum += v
	}
	return sum
}

// ErrRequest reports an invalid routing request.
var ErrRequest = errors.New("routing: invalid request")

// sink reports whether node is a delivery point for session s.
func (r *Request) sink(s, node int) bool {
	if r.Sink != nil {
		return r.Sink(s, node)
	}
	return node == r.Dest[s]
}

// coefficient returns the S3 objective weight of l_ij^s.
func coefficient(req *Request, s int, link topology.Link) float64 {
	qi := req.Backlog(s, link.From)
	qj := 0.0
	if !req.sink(s, link.To) {
		qj = req.Backlog(s, link.To)
	}
	return -qi + qj + req.Beta*req.H[link.ID]
}

// eligible reports whether session s may use link l at all, per the
// source/destination rules (16)–(17).
func eligible(req *Request, s int, link topology.Link) bool {
	if link.To == req.Source[s] {
		return false // (16): no incoming data at the source
	}
	if req.sink(s, link.From) {
		return false // (17): no outgoing data at a delivery point
	}
	return true
}

// Decide solves S3.
func Decide(req *Request) (*Decision, error) {
	if req.Net == nil {
		return nil, fmt.Errorf("%w: nil network", ErrRequest)
	}
	if len(req.H) != len(req.Net.Links) || len(req.CapacityPkts) != len(req.Net.Links) {
		return nil, fmt.Errorf("%w: H/capacity length mismatch", ErrRequest)
	}
	if len(req.Dest) != req.NumSessions || len(req.Source) != req.NumSessions ||
		len(req.DemandPkts) != req.NumSessions {
		return nil, fmt.Errorf("%w: per-session slice length mismatch", ErrRequest)
	}

	// One slab holds every link's row; the full slice expression keeps an
	// append to one row from spilling into the next.
	S := req.NumSessions
	d := &Decision{Flow: make([][]float64, len(req.Net.Links))}
	flowSlab := make([]float64, len(d.Flow)*S)
	for l := range d.Flow {
		d.Flow[l] = flowSlab[l*S : (l+1)*S : (l+1)*S]
	}
	remaining := make([]float64, len(req.Net.Links))
	copy(remaining, req.CapacityPkts)

	// Destination rule first: for each session, ship v_s(t) into a delivery
	// point on the eligible incoming link with the smallest coefficient
	// (constraint (18)).
	for s := 0; s < req.NumSessions; s++ {
		if req.DemandPkts[s] <= 0 {
			continue
		}
		bestL := -1
		bestW := 0.0
		for node := range req.Net.Nodes {
			if !req.sink(s, node) {
				continue
			}
			for _, l := range req.Net.InLinks(node) {
				link := req.Net.Links[l]
				if !eligible(req, s, link) || remaining[l] <= 0 {
					continue
				}
				w := coefficient(req, s, link)
				if bestL < 0 || w < bestW {
					bestL, bestW = l, w
				}
			}
		}
		if bestL < 0 {
			continue
		}
		amt := req.DemandPkts[s]
		if amt > remaining[bestL] {
			amt = remaining[bestL]
		}
		d.Flow[bestL][s] += amt
		remaining[bestL] -= amt
	}

	// Every other link: full remaining capacity to the most negative
	// coefficient among eligible sessions; ties to the lowest session index.
	for l, link := range req.Net.Links {
		if remaining[l] <= 0 {
			continue
		}
		bestS := -1
		bestW := 0.0 // only strictly negative coefficients ship
		for s := 0; s < req.NumSessions; s++ {
			if !eligible(req, s, link) {
				continue
			}
			if w := coefficient(req, s, link); w < bestW {
				bestS, bestW = s, w
			}
		}
		if bestS >= 0 {
			d.Flow[l][bestS] += remaining[l]
			remaining[l] = 0
		}
	}
	return d, nil
}

// Objective evaluates the S3 objective Σ coefficient·flow of a decision —
// used by tests to compare against brute force.
func Objective(req *Request, d *Decision) float64 {
	sum := 0.0
	for l, link := range req.Net.Links {
		for s := 0; s < req.NumSessions; s++ {
			if f := d.Flow[l][s]; f != 0 {
				sum += coefficient(req, s, link) * f
			}
		}
	}
	return sum
}
