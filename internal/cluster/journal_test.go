package cluster

// Journal replay robustness: a coordinator journal cut at EVERY byte
// offset — the full space of crash-mid-append outcomes — must replay
// without panicking, resume exactly the jobs whose last complete lifecycle
// event is non-terminal, keep terminal jobs as history, and admit exactly
// the complete cell records into the cache index. The loader's own
// torn-line tests live with server.LoadJournal.

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"greencell/internal/server"
	"greencell/internal/sim"
)

// buildJournal renders entries as the coordinator writes them: one JSON
// line per event.
func buildJournal(t *testing.T, entries []journalEntry) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, e := range entries {
		b, err := json.Marshal(e)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		buf.Write(append(b, '\n'))
	}
	return buf.Bytes()
}

// TestCoordinatorJournalTruncationEveryByte is the crash-replay sweep. The
// fixture journal holds one job in every lifecycle state — done with a
// cell, running, cancelled, failed — and the test re-opens a coordinator
// on every prefix of it.
func TestCoordinatorJournalTruncationEveryByte(t *testing.T) {
	req := server.JobRequest{Spec: sim.ScenarioSpec{Slots: 2, Seed: 3}}
	m := sim.SeedMetrics{Seed: 3}
	key, err := CellKey(req.Spec, 3)
	if err != nil {
		t.Fatalf("CellKey: %v", err)
	}
	full := buildJournal(t, []journalEntry{
		{Event: "submitted", ID: "cjob-000001", Req: &req},
		{Event: "started", ID: "cjob-000001"},
		{Event: "cell", ID: "cjob-000001", Seed: 3, Key: key, Metrics: &m},
		{Event: "done", ID: "cjob-000001"},
		{Event: "submitted", ID: "cjob-000002", Req: &req},
		{Event: "started", ID: "cjob-000002"},
		{Event: "submitted", ID: "cjob-000003", Req: &req},
		{Event: "started", ID: "cjob-000003"},
		{Event: "cancelled", ID: "cjob-000003"},
		{Event: "submitted", ID: "cjob-000004", Req: &req},
		{Event: "started", ID: "cjob-000004"},
		{Event: "failed", ID: "cjob-000004", Error: "boom"},
	})

	dir := t.TempDir()
	path := filepath.Join(dir, "trunc.jsonl")
	for cut := 0; cut <= len(full); cut++ {
		prefix := full[:cut]
		if err := os.WriteFile(path, prefix, 0o644); err != nil {
			t.Fatalf("cut %d: write: %v", cut, err)
		}

		// Expected replay outcome from the complete lines of the prefix
		// (the torn final fragment is dropped, like the loader does).
		type expect struct {
			last  string
			cells int
		}
		exp := map[string]*expect{}
		for _, line := range strings.Split(string(prefix), "\n") {
			var e journalEntry
			if json.Unmarshal([]byte(line), &e) != nil {
				continue
			}
			x := exp[e.ID]
			if x == nil {
				x = &expect{}
				exp[e.ID] = x
			}
			if e.Event == "cell" {
				x.cells++
				continue
			}
			x.last = e.Event
		}

		// No workers: resumed jobs sit pending until Close, which is all
		// this sweep needs — replay must never panic or mis-classify.
		c, err := New(Config{JournalPath: path, PollInterval: time.Millisecond})
		if err != nil {
			t.Fatalf("cut %d: New: %v", cut, err)
		}
		cells := 0
		for id, x := range exp {
			st, err := c.Job(id)
			switch x.last {
			case "submitted", "started":
				if err != nil {
					t.Fatalf("cut %d: recoverable job %s not resumed: %v", cut, id, err)
				}
				if st.State.Terminal() || !st.Recovered {
					t.Fatalf("cut %d: resumed job %s state %s recovered %v", cut, id, st.State, st.Recovered)
				}
			case "done", "failed", "cancelled":
				if err != nil {
					t.Fatalf("cut %d: terminal job %s lost: %v", cut, id, err)
				}
				if string(st.State) != x.last {
					t.Fatalf("cut %d: job %s replayed as %s, want %s", cut, id, st.State, x.last)
				}
			case "":
				// A submitted event whose req made it but no lifecycle yet is
				// impossible here (submitted IS the lifecycle event), so an
				// empty last means only cell fragments — job skipped.
				if err == nil {
					t.Fatalf("cut %d: job %s materialized from cell events alone", cut, id)
				}
			}
			cells += x.cells
		}
		if got := c.CacheLen(); got != cells {
			t.Fatalf("cut %d: cache admitted %d cells, want %d", cut, got, cells)
		}
		if err := c.Close(); err != nil {
			t.Fatalf("cut %d: Close: %v", cut, err)
		}
	}
}
