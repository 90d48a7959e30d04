package sim

import (
	"bytes"
	"flag"
	"os"
	"regexp"
	"strings"
	"testing"

	"greencell/internal/metrics"
)

// updateGolden rewrites testdata/golden_metrics.jsonl instead of diffing
// against it. Use only for intentional semantic changes to the stream.
var updateGolden = flag.Bool("update", false, "rewrite golden metrics fixtures")

// runMetricsStream executes a short Paper() run with an attached Recorder
// and returns the raw JSONL stream.
func runMetricsStream(t *testing.T, seed int64, gap bool) []byte {
	t.Helper()
	sc := Paper()
	sc.Slots = 12
	sc.Seed = seed
	sc.KeepTraces = false
	var buf bytes.Buffer
	rec := NewRecorder(metrics.NewJSONLWriter(&buf), HeaderFor(sc, "paper"))
	rec.Attach(&sc, gap)
	if _, err := Run(sc); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := rec.Close(); err != nil {
		t.Fatalf("Recorder.Close: %v", err)
	}
	return buf.Bytes()
}

// TestMetricsDeterministicForSeed is the emission regression test: two
// runs of the same scenario and seed must produce byte-identical streams
// once the wall-clock (_ns) fields are canonicalized away.
func TestMetricsDeterministicForSeed(t *testing.T) {
	a := runMetricsStream(t, 1, false)
	b := runMetricsStream(t, 1, false)
	ca, err := metrics.CanonicalizeJSONL(a)
	if err != nil {
		t.Fatalf("canonicalize a: %v", err)
	}
	cb, err := metrics.CanonicalizeJSONL(b)
	if err != nil {
		t.Fatalf("canonicalize b: %v", err)
	}
	if !bytes.Equal(ca, cb) {
		line := 1
		for i := range ca {
			if i >= len(cb) || ca[i] != cb[i] {
				break
			}
			if ca[i] == '\n' {
				line++
			}
		}
		t.Fatalf("same-seed streams differ after canonicalization (first difference around line %d)", line)
	}

	// A different seed must change the canonical stream (the test would be
	// vacuous if canonicalization erased everything interesting).
	c, err := metrics.CanonicalizeJSONL(runMetricsStream(t, 2, false))
	if err != nil {
		t.Fatalf("canonicalize c: %v", err)
	}
	if bytes.Equal(ca, c) {
		t.Fatal("streams of different seeds canonicalize identically; canonicalization is erasing real data")
	}
}

// TestMetricsGoldenByteIdentity pins the canonicalized fixed-seed stream
// to testdata/golden_metrics.jsonl, which was generated before the typed
// internal/units refactor. Defined types over float64 share the raw
// representation, so the refactor must not move a single bit of any
// metric; a diff here means some refactored expression changed its
// floating-point grouping. Regenerate the golden only for an intentional
// semantic change: go test ./internal/sim -run GoldenByteIdentity -update
func TestMetricsGoldenByteIdentity(t *testing.T) {
	got, err := metrics.CanonicalizeJSONL(runMetricsStream(t, 1, false))
	if err != nil {
		t.Fatalf("canonicalize: %v", err)
	}
	const golden = "testdata/golden_metrics.jsonl"
	if *updateGolden {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatalf("update golden: %v", err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("stream differs from golden at line %d:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("stream differs from golden in length: got %d lines, want %d", len(gl), len(wl))
	}
}

// TestMetricsStreamShape checks the stream carries what docs/METRICS.md
// promises: every slot, all four stage timings, and the queue/battery/
// grid series.
func TestMetricsStreamShape(t *testing.T) {
	raw := runMetricsStream(t, 1, false)
	slots, err := metrics.ReadAllSlots(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("ReadAllSlots: %v", err)
	}
	if len(slots) != 12 {
		t.Fatalf("got %d slot records, want 12", len(slots))
	}
	sawGrid, sawBattery, sawBacklog := false, false, false
	for i, s := range slots {
		if s.Slot != i {
			t.Errorf("record %d has slot %d", i, s.Slot)
		}
		if s.S1NS <= 0 || s.S2NS <= 0 || s.S3NS <= 0 || s.S4NS <= 0 {
			t.Errorf("slot %d: stage timings must be positive, got s1=%d s2=%d s3=%d s4=%d",
				i, s.S1NS, s.S2NS, s.S3NS, s.S4NS)
		}
		if s.TotalNS < s.S1NS+s.S2NS+s.S3NS+s.QueueNS+s.S4NS {
			t.Errorf("slot %d: total_ns %d below the stage sum", i, s.TotalNS)
		}
		if s.S4LPSolves != 0 || s.S4LPIters != 0 {
			t.Errorf("slot %d: S4 solves no LP, got solves=%d iters=%d", i, s.S4LPSolves, s.S4LPIters)
		}
		if s.OfferedPkts <= 0 || s.AdmittedPkts+s.DroppedPkts != s.OfferedPkts {
			t.Errorf("slot %d: offered=%g admitted=%g dropped=%g do not reconcile",
				i, s.OfferedPkts, s.AdmittedPkts, s.DroppedPkts)
		}
		if s.S1RelaxedObjective != nil {
			t.Errorf("slot %d: relaxed objective present without -metrics-gap", i)
		}
		sawGrid = sawGrid || s.GridWh > 0
		sawBattery = sawBattery || s.BatteryWhBS > 0 || s.BatteryWhUsers > 0
		sawBacklog = sawBacklog || s.DataBacklogBS > 0 || s.DataBacklogUsers > 0
	}
	if !sawGrid || !sawBattery || !sawBacklog {
		t.Errorf("series missing: grid=%v battery=%v backlog=%v", sawGrid, sawBattery, sawBacklog)
	}
}

// TestMetricsGap checks the -metrics-gap mode: every slot carries the
// LP-relaxation bound, and the bound dominates the heuristic objective.
func TestMetricsGap(t *testing.T) {
	raw := runMetricsStream(t, 1, true)
	slots, err := metrics.ReadAllSlots(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("ReadAllSlots: %v", err)
	}
	for i, s := range slots {
		if s.S1RelaxedObjective == nil {
			t.Fatalf("slot %d: missing relaxed objective in gap mode", i)
		}
		const tol = 1e-6
		if *s.S1RelaxedObjective < s.S1Objective-tol*(1+s.S1Objective) {
			t.Errorf("slot %d: relaxation %g below achieved objective %g",
				i, *s.S1RelaxedObjective, s.S1Objective)
		}
	}
}

// TestSummaryMetricsDocumented cross-checks the Recorder's registry
// against docs/METRICS.md: every registered metric name must be
// documented (per-strategy timers via their <strategy> pattern).
func TestSummaryMetricsDocumented(t *testing.T) {
	data, err := os.ReadFile("../../docs/METRICS.md")
	if err != nil {
		t.Fatalf("docs/METRICS.md: %v", err)
	}
	doc := string(data)

	sc := Paper()
	sc.Slots = 3
	sc.KeepTraces = false
	rec := NewRecorder(metrics.NewJSONLWriter(&bytes.Buffer{}), HeaderFor(sc, "paper"))
	rec.Attach(&sc, true) // gap on, so s1_gap registers too
	if _, err := Run(sc); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := rec.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	perStrategy := regexp.MustCompile(`^sched_.+_solve_ns$`)
	for _, name := range rec.Registry().Names() {
		if perStrategy.MatchString(name) {
			name = "sched_<strategy>_solve_ns"
		}
		if !strings.Contains(doc, "`"+name+"`") {
			t.Errorf("summary metric %q is not documented in docs/METRICS.md", name)
		}
	}
}
