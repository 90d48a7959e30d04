package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n, want int
	}{
		{0, 0},
		{19, 0},
		{20, 500},
		{39, 500},
		{40, 750},
		{99, 750},
		{100, 900},
		{199, 900},
		{200, 950},
		{999, 950},
		{1000, 990},
		{9999, 990},
		{10000, 999},
	}
	for _, c := range cases {
		got := tailPercentile(c.n)
		if got != c.want {
			t.Errorf("tailPercentile(%d) = %d, want %d", c.n, got, c.want)
		}
		if got > 0 && samplesBeyond(c.n, got) < minBeyond {
			t.Errorf("tailPercentile(%d) = %d leaves %d samples beyond", c.n, got, samplesBeyond(c.n, got))
		}
	}
	if got := samplesFor(990); got != 1000 {
		t.Errorf("samplesFor(p99) = %d, want 1000", got)
	}
	if got := samplesFor(900); got != 100 {
		t.Errorf("samplesFor(p90) = %d, want 100", got)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // descending: percentile must sort
	}
	for _, c := range []struct {
		pm   int
		want float64
	}{{500, 500}, {900, 900}, {990, 990}, {999, 999}} {
		if got := percentile(xs, c.pm); got != c.want {
			t.Errorf("percentile(1..1000, %d‰) = %v, want %v", c.pm, got, c.want)
		}
	}
	if xs[0] != 1000 {
		t.Error("percentile modified its input")
	}
	if got := percentile(nil, 500); got != 0 {
		t.Errorf("percentile(nil) = %v, want 0", got)
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4) and
// statistics.median(xs).
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
		med        float64
	}{
		{[]float64{1, 3}, 0.5, 2, 3.5, 2},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5, 3},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25, 5.5},
		{[]float64{7.5, 1.25, 3.0, 9.0, 2.0, 4.5}, 1.8125, 3.75, 7.875, 3.75},
	}
	for _, c := range cases {
		q1, q2, q3, ok := quartiles(c.xs)
		if !ok || !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v %v, want %v %v %v", c.xs, q1, q2, q3, ok, c.q1, c.q2, c.q3)
		}
		if got := median(c.xs); !near(got, c.med) {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.med)
		}
	}
	if _, _, _, ok := quartiles([]float64{1}); ok {
		t.Error("quartiles of one sample reported ok")
	}
}

func TestQuartileSpread(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := quartileSpread(xs); !near(got, (8.25-2.75)/5.5) {
		t.Errorf("quartileSpread(1..10) = %v, want %v", got, (8.25-2.75)/5.5)
	}
	same := []float64{4, 4, 4, 4}
	if got := quartileSpread(same); got != 0 {
		t.Errorf("quartileSpread of equal values = %v, want 0", got)
	}
	if got := quartileSpread([]float64{0, 0, 0}); !math.IsInf(got, 1) {
		t.Errorf("quartileSpread with zero median = %v, want +Inf", got)
	}
}

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "run", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},  // overlaps a: counted once
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // clipped to the parent
		{ID: 5, Parent: 3, Name: "d", Start: 25, End: 35},
		{ID: 6, Parent: 3, Name: "e", Start: 60, End: 70}, // outside its parent
	}
	want := []int64{100 - 40 - 10, 20, 30 - 10, 30, 10, 10}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
	byName := selfByName(append(spans, span{ID: 7, Name: "a", Start: 0, End: 5}))
	if byName["a"] != 25 {
		t.Errorf("self time summed over spans named a = %d, want 25", byName["a"])
	}
}

func TestSnapshotSharesRootKey(t *testing.T) {
	origin := time.Unix(0, 0)
	tr := newTracer(origin, 4)
	root := tr.open(0, "client.job", "job-0", origin)
	tr.setCurrent(root)
	tr.addUnderCurrent("server.status", origin.Add(2), origin.Add(3), true)
	tr.setCurrent(0)
	tr.close(root, origin.Add(10))
	tr.addUnderCurrent("server.probe", origin.Add(11), origin.Add(12), false)
	got := tr.snapshot()
	if got[0].End != 10 || got[1].Parent != root || got[1].Key != "job-0" || !got[1].Flag {
		t.Errorf("job spans = %+v", got[:2])
	}
	if got[2].Parent != 0 || got[2].Key != "" {
		t.Errorf("request outside a job = %+v, want a root with no key", got[2])
	}
}

func TestPrefixGivesTenSamplesBeyondTails(t *testing.T) {
	for _, e := range workloads {
		w, ok := e.w.(simWorkload)
		if !ok {
			continue
		}
		if got := w.prefixRuns() * (w.spec.Slots - 1); got < samplesFor(990) {
			t.Errorf("%s: prefix gives %d slot intervals, want at least %d", e.name, got, samplesFor(990))
		}
		if got := w.prefixRuns(); got < samplesFor(900) {
			t.Errorf("%s: prefix gives %d jobs, want at least %d", e.name, got, samplesFor(900))
		}
	}
}

// TestMetricsMatchBenchmarkJSON keeps the reported metric and workload
// sets identical to the benchmark definition.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatalf("reading BENCHMARK.json: %v", err)
	}
	var bf struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatalf("parsing BENCHMARK.json: %v", err)
	}
	check := func(kind string, file []struct{ Name, Unit string }, code []metricDef) {
		if len(file) != len(code) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the code %d", kind, len(file), len(code))
		}
		for i := range code {
			if file[i].Name != code[i].name || file[i].Unit != code[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), code %s (%s)", kind, i, file[i].Name, file[i].Unit, code[i].name, code[i].unit)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd)
	check("per_layer", bf.PerLayer, perLayer)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(bf.Workloads), len(workloads))
	}
	for i, e := range workloads {
		if bf.Workloads[i].Name != e.name {
			t.Errorf("workload %d: BENCHMARK.json %s, code %s", i, bf.Workloads[i].Name, e.name)
		}
	}
	perLayerNames := make(map[string]bool)
	for _, d := range perLayer {
		perLayerNames[d.name] = true
	}
	for _, name := range exactCounters {
		if !perLayerNames[name] {
			t.Errorf("exact counter %s is not a per-layer metric", name)
		}
	}
}

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*(1+math.Abs(b)) }

func TestSlotTimesTakeMediansOverBlocks(t *testing.T) {
	s := newSlotTimes()
	for b := 0; b < 3; b++ {
		for i := 1; i <= blockSize; i++ {
			ms := float64(i) // block b: 1..1000 ms, scaled
			if b == 1 {
				ms *= 10 // one spoiled block
			}
			s.add(time.Duration(ms * float64(time.Millisecond)))
		}
	}
	s.add(time.Hour) // a partial block is dropped
	if got := s.samples(); got != 3*blockSize {
		t.Errorf("samples = %d, want %d", got, 3*blockSize)
	}
	if got := s.p50(); got != 500 {
		t.Errorf("p50 = %v, want 500", got)
	}
	if got := s.p99(); got != 990 {
		t.Errorf("p99 = %v, want 990", got)
	}
	if got := samplesBeyond(blockSize, 990); got != minBeyond {
		t.Errorf("a block leaves %d samples beyond its p99, want %d", got, minBeyond)
	}
}
