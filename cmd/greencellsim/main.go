// Command greencellsim runs one simulation of the green multi-hop cellular
// network and prints its headline metrics.
//
// Usage:
//
//	greencellsim [flags]
//
// Flags select the drift weight V, the horizon, the architecture, and the
// S1 scheduler. The defaults reproduce the paper's Section VI setup.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"greencell/internal/core"
	"greencell/internal/export"
	"greencell/internal/faultinject"
	"greencell/internal/metrics"
	"greencell/internal/queueing"
	"greencell/internal/sched"
	"greencell/internal/sim"
	"greencell/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "greencellsim:", err)
		os.Exit(1)
	}
}

func run(args []string) (err error) {
	fs := flag.NewFlagSet("greencellsim", flag.ContinueOnError)
	var (
		v          = fs.Float64("v", 1e5, "drift-plus-penalty weight V")
		lambda     = fs.Float64("lambda", 0.0006, "admission reward λ")
		slots      = fs.Int("slots", 100, "number of time slots T")
		seed       = fs.Int64("seed", 1, "scenario seed")
		users      = fs.Int("users", 20, "number of mobile users")
		sessions   = fs.Int("sessions", 4, "number of downlink sessions")
		neighbors  = fs.Int("neighbors", 6, "candidate out-links per node (0 = unlimited)")
		arch       = fs.String("arch", "proposed", "architecture: proposed | multihop-nr | onehop-r | onehop-nr")
		preset     = fs.String("preset", "paper", "scenario preset: paper | urban | rural")
		uplink     = fs.Int("uplink", 0, "additional uplink (user→BS anycast) sessions")
		scheduler  = fs.String("scheduler", "sf", "S1 solver: sf | greedy | exact | relaxed")
		bounds     = fs.Bool("bounds", false, "also run the relaxed controller and print the Theorem 4/5 bounds")
		jsonOut    = fs.Bool("json", false, "emit the result as JSON instead of text")
		dotOut     = fs.Bool("dot", false, "emit the topology as Graphviz DOT and exit")
		traceOut   = fs.String("trace", "", "write per-slot JSON-Lines trace records to this file")
		metricsOut = fs.String("metrics", "", "write the per-slot metrics stream (JSON Lines, docs/METRICS.md) to this file")
		metricsCSV = fs.String("metrics-csv", "", "also write the metrics stream as CSV to this file (requires -metrics)")
		metricsGap = fs.Bool("metrics-gap", false, "record the S1 heuristic-vs-LP-relaxation optimality gap each slot (roughly doubles S1 work)")
		faults     = fs.Float64("faults", 0, "fault-injection probability per site per slot (deterministic by seed; docs/ROBUSTNESS.md)")
		budgetIter = fs.Int("budget-iters", 0, "max simplex iterations per S1 LP solve (0 = unlimited)")
		deadline   = fs.Duration("deadline", 0, "per-slot wall-clock solve deadline (0 = none; overruns degrade, not fail)")
		check      = fs.Bool("check", false, "validate every slot against the paper's per-slot invariants (eqs. (9)-(14), (22), (25), (30))")
		submitURL  = fs.String("submit", "", "submit as a job to a running greencelld at this base URL (e.g. http://127.0.0.1:8080) instead of simulating locally")
		replicate  = fs.Int("replications", 0, "with -submit: replicate over this many consecutive seeds starting at -seed")
		submitTO   = fs.Duration("submit-timeout", 0, "with -submit: overall deadline for the submit/poll/fetch exchange (0 = none)")
		dist       = fs.Bool("dist", false, "run the distributed message-passing controller over a simulated network (docs/DISTRIBUTED.md)")
		netLoss    = fs.Float64("net-loss", 0, "with -dist: control-message loss probability in [0,1]")
		netLat     = fs.Float64("net-latency", 0, "with -dist: control-message delay probability in [0,1]")
		netLatMax  = fs.Int("net-latency-max", 0, "with -dist: max extra delay ticks of a delayed message (<1 reads as 1)")
		netDup     = fs.Float64("net-dup", 0, "with -dist: control-message duplication probability in [0,1]")
		netReorder = fs.Int("net-reorder", 0, "with -dist: within-tick delivery reorder window")
		netPart    = fs.String("net-partition", "", "with -dist: comma-separated node IDs held offline for the whole run")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *submitURL != "" {
		// Only explicitly-set flags enter the spec, so daemon-side preset
		// defaults apply to everything the caller did not say — a plain
		// `-preset paper -submit URL` job matches `sim.Paper()` exactly
		// (local flag defaults like -neighbors=6 are NOT implied).
		spec := sim.ScenarioSpec{}
		var flagErr error
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "v":
				spec.V = *v
			case "lambda":
				spec.Lambda = *lambda
			case "slots":
				spec.Slots = *slots
			case "seed":
				spec.Seed = *seed
			case "users":
				spec.Users = *users
			case "sessions":
				spec.Sessions = *sessions
			case "uplink":
				spec.UplinkSessions = *uplink
			case "neighbors":
				n := *neighbors
				spec.Neighbors = &n
			case "arch":
				spec.Architecture = *arch
			case "preset":
				spec.Preset = *preset
			case "scheduler":
				spec.Scheduler = *scheduler
			case "faults":
				spec.FaultProb = *faults
			case "budget-iters":
				spec.BudgetIters = *budgetIter
			case "deadline":
				spec.SlotDeadlineMS = deadline.Milliseconds()
			case "check":
				spec.CheckInvariants = *check
			case "dist":
				spec.Dist = *dist
			case "net-loss":
				spec.NetLoss = *netLoss
			case "net-latency":
				spec.NetLatency = *netLat
			case "net-latency-max":
				spec.NetLatencyMax = *netLatMax
			case "net-dup":
				spec.NetDup = *netDup
			case "net-reorder":
				spec.NetReorder = *netReorder
			case "net-partition":
				ids, perr := parseNodeList(*netPart)
				if perr != nil {
					flagErr = errors.Join(flagErr, perr)
					return
				}
				spec.NetPartition = ids
			case "submit", "replications", "json", "metrics", "submit-timeout":
				// Client-side flags, handled below.
			default:
				flagErr = errors.Join(flagErr, fmt.Errorf("-%s is not supported with -submit", f.Name))
			}
		})
		if flagErr != nil {
			return flagErr
		}
		return submitJob(*submitURL, spec, *replicate, *jsonOut, *metricsOut, *submitTO)
	}

	var sc sim.Scenario
	switch *preset {
	case "paper":
		sc = sim.Paper()
	case "urban":
		sc = sim.Urban()
	case "rural":
		sc = sim.Rural()
	default:
		return fmt.Errorf("unknown preset %q", *preset)
	}
	sc.UplinkSessions = *uplink
	sc.V = *v
	sc.Lambda = *lambda
	sc.Slots = *slots
	sc.Seed = *seed
	sc.NumSessions = *sessions
	sc.Topology.NumUsers = *users
	sc.Topology.MaxNeighbors = *neighbors
	sc.CheckInvariants = sc.CheckInvariants || *check
	sc.Budget = core.SolveBudget{MaxLPIterations: *budgetIter, SlotDeadline: *deadline}
	if *faults > 0 {
		cfg := faultinject.Uniform(*faults)
		sc.Faults = &cfg
	} else if *faults < 0 {
		return fmt.Errorf("-faults must be in [0,1], got %g", *faults)
	}
	sc.Dist = *dist
	sc.NetLoss = *netLoss
	sc.NetLatency = *netLat
	sc.NetLatencyMax = *netLatMax
	sc.NetDup = *netDup
	sc.NetReorder = *netReorder
	if *netPart != "" {
		ids, perr := parseNodeList(*netPart)
		if perr != nil {
			return perr
		}
		sc.NetPartition = ids
	}
	if !*dist && (sc.NetLoss != 0 || sc.NetLatency != 0 || sc.NetLatencyMax != 0 ||
		sc.NetDup != 0 || sc.NetReorder != 0 || sc.NetPartition != nil) {
		return fmt.Errorf("-net-* flags require -dist")
	}

	switch *arch {
	case "proposed":
		sc.Architecture = sim.Proposed
	case "multihop-nr":
		sc.Architecture = sim.MultiHopNoRenewable
	case "onehop-r":
		sc.Architecture = sim.OneHopRenewable
	case "onehop-nr":
		sc.Architecture = sim.OneHopNoRenewable
	default:
		return fmt.Errorf("unknown architecture %q", *arch)
	}
	switch *scheduler {
	case "sf":
		sc.Scheduler = sched.SequentialFix{}
	case "greedy":
		sc.Scheduler = sched.Greedy{}
	case "exact":
		sc.Scheduler = sched.Exact{}
	case "relaxed":
		sc.Scheduler = sched.Relaxed{}
	default:
		return fmt.Errorf("unknown scheduler %q", *scheduler)
	}

	if *dotOut {
		_, net, _, err := sim.Build(sc)
		if err != nil {
			return err
		}
		return export.TopologyDOT(os.Stdout, net)
	}

	var traceErr error
	if *traceOut != "" {
		f, ferr := os.Create(*traceOut)
		if ferr != nil {
			return ferr
		}
		tw := trace.NewWriter(f)
		// Close flushes the buffered trace; its error carries the final
		// write and must reach the caller.
		defer func() { err = errors.Join(err, tw.Close(), f.Close()) }()
		sc.SlotHook = func(sr *core.SlotResult) {
			// A write failure must not kill the run mid-slot; keep the
			// first one and report it after the horizon completes.
			if werr := tw.Write(trace.FromSlot(sr)); werr != nil && traceErr == nil {
				traceErr = werr
			}
		}
	}

	var rec *sim.Recorder
	var detach func()
	if *metricsOut != "" {
		f, ferr := os.Create(*metricsOut)
		if ferr != nil {
			return ferr
		}
		defer func() { err = errors.Join(err, f.Close()) }()
		var mw metrics.RecordWriter = metrics.NewJSONLWriter(f)
		if *metricsCSV != "" {
			cf, cerr := os.Create(*metricsCSV)
			if cerr != nil {
				return cerr
			}
			defer func() { err = errors.Join(err, cf.Close()) }()
			mw = metrics.MultiWriter{mw, metrics.NewCSVWriter(cf)}
		}
		rec = sim.NewRecorder(mw, sim.HeaderFor(sc, *preset))
		origSched, origHook := sc.Scheduler, sc.SlotHook
		rec.Attach(&sc, *metricsGap)
		detach = func() { sc.Scheduler, sc.SlotHook = origSched, origHook }
	} else if *metricsCSV != "" || *metricsGap {
		return fmt.Errorf("-metrics-csv and -metrics-gap require -metrics")
	}

	res, err := sim.Run(sc)
	if err != nil {
		return err
	}
	if traceErr != nil {
		return fmt.Errorf("trace: %w", traceErr)
	}
	if rec != nil {
		if err := rec.Close(); err != nil {
			return fmt.Errorf("metrics: %w", err)
		}
		// The later -bounds runs must not feed the closed stream.
		detach()
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(struct {
			Architecture string
			V, Lambda    float64
			Slots        int
			Seed         int64
			*sim.Result
		}{sc.Architecture.String(), sc.V, sc.Lambda, sc.Slots, sc.Seed, res})
	}

	fmt.Printf("architecture:        %v\n", sc.Architecture)
	fmt.Printf("V:                   %g   lambda: %g   slots: %d   seed: %d\n", sc.V, sc.Lambda, sc.Slots, sc.Seed)
	fmt.Printf("avg energy cost:     %.4g  (f(P) per slot)\n", res.AvgEnergyCost)
	fmt.Printf("avg penalty obj:     %.4g  (f(P) − λ·Σk per slot)\n", res.AvgPenaltyObjective)
	fmt.Printf("avg grid draw:       %.4g Wh/slot\n", res.AvgGridWh)
	fmt.Printf("admitted packets:    %.0f\n", res.AdmittedPkts)
	fmt.Printf("delivered packets:   %.0f\n", res.DeliveredPkts)
	fmt.Printf("energy deficit:      %.4g Wh\n", res.DeficitWh)
	fmt.Printf("final backlog (BS):  %.1f pkts   (users): %.1f pkts\n",
		res.FinalDataBacklogBS, res.FinalDataBacklogUsers)
	fmt.Printf("final battery (BS):  %.1f Wh     (users): %.1f Wh\n",
		res.FinalBatteryWhBS, res.FinalBatteryWhUsers)
	if res.DegradedSlots > 0 {
		fmt.Printf("degraded slots:      %d/%d (max streak %d): %s\n",
			res.DegradedSlots, sc.Slots, res.MaxDegradedStreak, causeBreakdown(res.DegradedByCause))
	}
	if res.Net != nil {
		n := res.Net
		fmt.Printf("network:             %d msgs (%d dropped, %d delayed, %d duped, %d late), %d data transfers\n",
			n.MsgsSent, n.MsgsDropped, n.MsgsDelayed, n.MsgsDuped, n.MsgsLate, n.DataMsgs)
		fmt.Printf("coordination:        %d stale views over %d slots, %d missed commands, %d node clamps\n",
			n.StaleViews, n.StaleSlots, n.MissedCmds, n.NodeClamps)
		fmt.Printf("ground truth:        %.0f pkts delivered, %.4g Wh deficit (coordinator saw %.0f pkts, %.4g Wh)\n",
			n.TrueDeliveredPkts, n.TrueDeficitWh.Wh(), res.DeliveredPkts, res.DeficitWh)
	}
	if res.DataBacklogBSTrace != nil {
		tail := len(res.DataBacklogBSTrace) / 2
		fmt.Printf("backlog tail slope:  BS %.3f pkts/slot, users %.3f pkts/slot\n",
			queueing.Slope(res.DataBacklogBSTrace[tail:]),
			queueing.Slope(res.DataBacklogUsersTrace[tail:]))
	}

	if *bounds {
		b, err := sim.BoundsAt(sc, sc.V)
		if err != nil {
			return err
		}
		fmt.Printf("theorem 4/5 bounds:  lower %.6g <= psi*_P1 <= upper %.6g (B=%.4g, B/V=%.4g)\n",
			b.Lower, b.Upper, res.B, res.B/sc.V)
	}
	return nil
}

// parseNodeList parses the -net-partition value: comma-separated
// non-negative node IDs.
func parseNodeList(s string) ([]int, error) {
	var ids []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, err := strconv.Atoi(part)
		if err != nil || id < 0 {
			return nil, fmt.Errorf("-net-partition: %q is not a non-negative node ID", part)
		}
		ids = append(ids, id)
	}
	return ids, nil
}

// causeBreakdown renders a cause→count map in deterministic (sorted)
// order, e.g. "s1_iterlimit=3 s4_infeasible=1".
func causeBreakdown(byCause map[string]int) string {
	causes := make([]string, 0, len(byCause))
	for c := range byCause {
		causes = append(causes, c)
	}
	sort.Strings(causes)
	parts := make([]string, len(causes))
	for i, c := range causes {
		parts[i] = fmt.Sprintf("%s=%d", c, byCause[c])
	}
	return strings.Join(parts, " ")
}
