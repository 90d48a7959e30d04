package sim

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"greencell/internal/stats"
)

// ReplicatedResult aggregates a scenario across independent seeds. The
// paper's headline numbers are expectations over the random placement,
// spectrum, renewable, and grid processes; replication estimates them with
// confidence intervals.
type ReplicatedResult struct {
	// Summaries over the per-replication scalar metrics. When some seeds
	// failed (FailedSeeds non-empty), the summaries cover only the seeds
	// that succeeded.
	AvgEnergyCost       stats.Summary
	AvgPenaltyObjective stats.Summary
	AvgGridWh           stats.Summary
	DeliveredPkts       stats.Summary
	AdmittedPkts        stats.Summary
	FinalDataBacklog    stats.Summary
	FinalBatteryWh      stats.Summary
	// DegradedSlots summarizes the per-replication count of slots that
	// fell back to a safe action (docs/ROBUSTNESS.md).
	DegradedSlots stats.Summary

	// FailedSeeds lists the seeds whose replication failed, in seed-list
	// order; the per-seed errors are joined into RunReplicated's error.
	FailedSeeds []int64

	// Pointwise-mean traces (nil unless Scenario.KeepTraces).
	MeanCostTrace          []float64
	MeanDataBacklogBSTrace []float64
	MeanDataBacklogUTrace  []float64
	MeanBatteryWhBSTrace   []float64
	MeanBatteryWhUTrace    []float64
}

// SeedOutcome is one replication's result or error (never both non-zero).
type SeedOutcome struct {
	Seed   int64
	Result *Result
	Err    error
}

// RunSeeds runs the scenario once per seed on a worker pool capped at
// runtime.GOMAXPROCS(0) goroutines and returns one outcome per seed, in
// seed order. Every run is independent and deterministic per seed, so
// results are identical to a serial sweep. A panicking replication is
// recovered into its outcome's Err — one buggy seed cannot crash the
// batch — and cancelling ctx makes remaining seeds return promptly with
// ctx's error while already-finished outcomes are kept.
func RunSeeds(ctx context.Context, sc Scenario, seeds []int64) []SeedOutcome {
	return RunSeedsPrepared(ctx, sc, seeds, nil)
}

// RunSeedsPrepared is RunSeeds with a per-seed customization seam: when
// prepare is non-nil it runs on each replication's private Scenario copy —
// after its Seed is set, before the run starts — so callers can attach
// per-seed recorders or progress hooks without sharing mutable state
// across the pool's goroutines (the Recorder is single-run; a shared
// SlotHook would race). prepare is called concurrently for distinct seeds
// and must not retain the *Scenario past the call. Panics inside prepare
// are recovered into the seed's outcome like any other replication panic.
func RunSeedsPrepared(ctx context.Context, sc Scenario, seeds []int64, prepare func(seed int64, sc *Scenario)) []SeedOutcome {
	outs := make([]SeedOutcome, len(seeds))
	forEach(len(seeds), func(i int) {
		outs[i] = runSeed(ctx, sc, seeds[i], prepare)
	})
	return outs
}

// forEach calls f(i) for every i in [0, n) on a pool of at most
// runtime.GOMAXPROCS(0) goroutines and returns once every call has. f must
// confine its writes to state owned by index i.
func forEach(n int, f func(i int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	idxCh := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idxCh {
				f(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idxCh <- i
	}
	close(idxCh)
	wg.Wait()
}

// runSeed executes one replication, converting a panic into the outcome's
// error so the worker (and its pool) survives.
func runSeed(ctx context.Context, sc Scenario, seed int64, prepare func(seed int64, sc *Scenario)) (out SeedOutcome) {
	out.Seed = seed
	defer func() {
		if r := recover(); r != nil {
			out.Result = nil
			out.Err = fmt.Errorf("seed %d: panic: %v", seed, r)
		}
	}()
	s := sc
	s.Seed = seed
	if prepare != nil {
		prepare(seed, &s)
	}
	out.Result, out.Err = RunCtx(ctx, s)
	if out.Err != nil {
		out.Err = fmt.Errorf("seed %d: %w", seed, out.Err)
	}
	return out
}

// RunReplicated runs the scenario once per seed (bounded-concurrency pool,
// see RunSeeds) and summarizes. On per-seed failures it degrades instead
// of aborting: the returned result summarizes the seeds that succeeded and
// lists the rest in FailedSeeds, and the error is the errors.Join of the
// per-seed errors — so a caller that only checks the error keeps the old
// fail-fast behavior, while callers wanting partial batches inspect both.
func RunReplicated(sc Scenario, seeds []int64) (*ReplicatedResult, error) {
	return RunReplicatedCtx(context.Background(), sc, seeds)
}

// RunReplicatedCtx is RunReplicated with cooperative cancellation:
// cancelling ctx fails the unfinished seeds with ctx's error and returns
// the summaries of the seeds that completed first.
func RunReplicatedCtx(ctx context.Context, sc Scenario, seeds []int64) (*ReplicatedResult, error) {
	if len(seeds) == 0 {
		return nil, fmt.Errorf("%w: no seeds", ErrScenario)
	}
	outs := RunSeeds(ctx, sc, seeds)

	var (
		cost, pen, grid, del, adm, backlog, batt, degr []float64
		costT, qbsT, quT, bbsT, buT                    [][]float64
		errs                                           []error
	)
	out := &ReplicatedResult{}
	for _, o := range outs {
		if o.Err != nil {
			out.FailedSeeds = append(out.FailedSeeds, o.Seed)
			errs = append(errs, o.Err)
			continue
		}
		res := o.Result
		cost = append(cost, res.AvgEnergyCost.Value())
		pen = append(pen, res.AvgPenaltyObjective)
		grid = append(grid, res.AvgGridWh.Wh())
		del = append(del, res.DeliveredPkts)
		adm = append(adm, res.AdmittedPkts)
		backlog = append(backlog, res.FinalDataBacklogBS+res.FinalDataBacklogUsers)
		batt = append(batt, (res.FinalBatteryWhBS + res.FinalBatteryWhUsers).Wh())
		degr = append(degr, float64(res.DegradedSlots))
		if sc.KeepTraces {
			costT = append(costT, res.CostTrace)
			qbsT = append(qbsT, res.DataBacklogBSTrace)
			quT = append(quT, res.DataBacklogUsersTrace)
			bbsT = append(bbsT, res.BatteryWhBSTrace)
			buT = append(buT, res.BatteryWhUsersTrace)
		}
	}
	out.AvgEnergyCost = stats.Summarize(cost)
	out.AvgPenaltyObjective = stats.Summarize(pen)
	out.AvgGridWh = stats.Summarize(grid)
	out.DeliveredPkts = stats.Summarize(del)
	out.AdmittedPkts = stats.Summarize(adm)
	out.FinalDataBacklog = stats.Summarize(backlog)
	out.FinalBatteryWh = stats.Summarize(batt)
	out.DegradedSlots = stats.Summarize(degr)
	if sc.KeepTraces {
		out.MeanCostTrace = stats.MeanSeries(costT)
		out.MeanDataBacklogBSTrace = stats.MeanSeries(qbsT)
		out.MeanDataBacklogUTrace = stats.MeanSeries(quT)
		out.MeanBatteryWhBSTrace = stats.MeanSeries(bbsT)
		out.MeanBatteryWhUTrace = stats.MeanSeries(buT)
	}
	return out, errors.Join(errs...)
}

// SeedMetrics is the compact per-replication scalar record — the unit
// cmd/sweep checkpoints to its -resume JSONL file (docs/ROBUSTNESS.md), so
// completed (scenario, seed) cells survive a crash or cancellation.
type SeedMetrics struct {
	Seed                int64   `json:"seed"`
	AvgEnergyCost       float64 `json:"avg_energy_cost"`
	AvgPenaltyObjective float64 `json:"avg_penalty_objective"`
	AvgGridWh           float64 `json:"avg_grid_wh"`
	DeliveredPkts       float64 `json:"delivered_pkts"`
	AdmittedPkts        float64 `json:"admitted_pkts"`
	FinalDataBacklog    float64 `json:"final_data_backlog"`
	FinalBatteryWh      float64 `json:"final_battery_wh"`
	DegradedSlots       int     `json:"degraded_slots"`
}

// MetricsOf extracts the checkpointable scalars of one replication.
func MetricsOf(seed int64, r *Result) SeedMetrics {
	return SeedMetrics{
		Seed:                seed,
		AvgEnergyCost:       r.AvgEnergyCost.Value(),
		AvgPenaltyObjective: r.AvgPenaltyObjective,
		AvgGridWh:           r.AvgGridWh.Wh(),
		DeliveredPkts:       r.DeliveredPkts,
		AdmittedPkts:        r.AdmittedPkts,
		FinalDataBacklog:    r.FinalDataBacklogBS + r.FinalDataBacklogUsers,
		FinalBatteryWh:      (r.FinalBatteryWhBS + r.FinalBatteryWhUsers).Wh(),
		DegradedSlots:       r.DegradedSlots,
	}
}

// SummarizeSeedMetrics folds per-seed records — fresh or reloaded from a
// checkpoint — into the replicated summaries. Traces are not checkpointed,
// so the trace fields stay nil.
func SummarizeSeedMetrics(ms []SeedMetrics) *ReplicatedResult {
	var cost, pen, grid, del, adm, backlog, batt, degr []float64
	for _, m := range ms {
		cost = append(cost, m.AvgEnergyCost)
		pen = append(pen, m.AvgPenaltyObjective)
		grid = append(grid, m.AvgGridWh)
		del = append(del, m.DeliveredPkts)
		adm = append(adm, m.AdmittedPkts)
		backlog = append(backlog, m.FinalDataBacklog)
		batt = append(batt, m.FinalBatteryWh)
		degr = append(degr, float64(m.DegradedSlots))
	}
	return &ReplicatedResult{
		AvgEnergyCost:       stats.Summarize(cost),
		AvgPenaltyObjective: stats.Summarize(pen),
		AvgGridWh:           stats.Summarize(grid),
		DeliveredPkts:       stats.Summarize(del),
		AdmittedPkts:        stats.Summarize(adm),
		FinalDataBacklog:    stats.Summarize(backlog),
		FinalBatteryWh:      stats.Summarize(batt),
		DegradedSlots:       stats.Summarize(degr),
	}
}

// ReplicatedBounds is the seed-averaged Theorem 4/5 sandwich at one V.
type ReplicatedBounds struct {
	V     float64
	Upper stats.Summary
	Lower stats.Summary
}

// BoundsReplicated averages BoundsAt over seeds.
func BoundsReplicated(sc Scenario, v float64, seeds []int64) (ReplicatedBounds, error) {
	if len(seeds) == 0 {
		return ReplicatedBounds{}, fmt.Errorf("%w: no seeds", ErrScenario)
	}
	var uppers, lowers []float64
	for _, seed := range seeds {
		s := sc
		s.Seed = seed
		b, err := BoundsAt(s, v)
		if err != nil {
			return ReplicatedBounds{}, fmt.Errorf("seed %d: %w", seed, err)
		}
		uppers = append(uppers, b.Upper)
		lowers = append(lowers, b.Lower)
	}
	return ReplicatedBounds{
		V:     v,
		Upper: stats.Summarize(uppers),
		Lower: stats.Summarize(lowers),
	}, nil
}

// Seeds returns n consecutive seeds starting at base — a convenience for
// replication sweeps.
func Seeds(base int64, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = base + int64(i)
	}
	return out
}
