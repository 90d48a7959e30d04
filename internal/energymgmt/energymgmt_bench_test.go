package energymgmt

import (
	"testing"

	"greencell/internal/energy"
	"greencell/internal/rng"
	"greencell/internal/units"
)

// benchRequest mirrors the paper scenario's S4 instance: 2 base stations
// and 20 users.
func benchRequest() *Request {
	src := rng.New(7)
	req := &Request{V: 1e5, Cost: energy.PaperCost()}
	for i := 0; i < 22; i++ {
		isBS := i < 2
		req.Nodes = append(req.Nodes, NodeInput{
			Z:                   units.Wh(-1e5 * src.Uniform(1e3, 1e4)),
			DemandWh:            units.Wh(src.Uniform(0, 0.3)),
			RenewableWh:         units.Wh(src.Uniform(0, 1.5)),
			ChargeHeadroomWh:    units.Wh(src.Uniform(0, 0.4)),
			DischargeHeadroomWh: units.Wh(src.Uniform(0, 0.4)),
			GridConnected:       isBS || src.Bernoulli(0.5),
			GridCapWh:           200,
			IsBS:                isBS,
		})
	}
	return req
}

// BenchmarkSolveS4 measures the per-slot energy-management solve: the
// merit-order dispatch of the base stations' grid at one clearing price.
func BenchmarkSolveS4(b *testing.B) {
	req := benchRequest()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Solve(req); err != nil {
			b.Fatal(err)
		}
	}
}
