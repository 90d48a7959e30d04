package server

// The shared JSONL journal behind the daemon journal, the coordinator
// journal and sweep -resume: a torn final line is a crash mid-append and
// is dropped; a torn line with records after it is corruption; and
// reopening a journal with a torn tail must not glue the next record onto
// it.

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestLoadJournalTornFinalLineTolerated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	data := []byte(`{"event":"submitted","id":"job-000001"}` + "\n" +
		`{"event":"started","id":"job-000001"}` + "\n" +
		`{"event":"do`) // crash mid-append
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatalf("write: %v", err)
	}
	entries, err := LoadJournal[journalEntry](path)
	if err != nil {
		t.Fatalf("LoadJournal: %v", err)
	}
	if len(entries) != 2 || entries[1].Event != "started" {
		t.Fatalf("entries = %+v, want the two complete events", entries)
	}
}

func TestLoadJournalTornMidFileIsCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	data := []byte(`{"event":"sub` + "\n" + `{"event":"started","id":"job-000001"}` + "\n")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatalf("write: %v", err)
	}
	if _, err := LoadJournal[journalEntry](path); err == nil {
		t.Fatal("a torn line followed by more records loaded without error")
	}
}

// TestJournalReopenAfterTornTail: a crash leaves a final line without its
// newline; the restarted process appends and crashes again. The second
// restart must still load: a torn fragment is cut off on open, and a whole
// record that only lacks its newline is kept and completed.
func TestJournalReopenAfterTornTail(t *testing.T) {
	for _, tc := range []struct {
		name, tail string
		want       []string // events after reopen + one append
	}{
		{"torn fragment", `{"event":"do`, []string{"submitted", "cancelled"}},
		{"whole record, no newline", `{"event":"started","id":"job-000001"}`, []string{"submitted", "started", "cancelled"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "j.jsonl")
			data := `{"event":"submitted","id":"job-000001"}` + "\n" + tc.tail
			if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
				t.Fatalf("write: %v", err)
			}
			j, err := OpenJournal[journalEntry](path)
			if err != nil {
				t.Fatalf("OpenJournal: %v", err)
			}
			if err := j.Append(journalEntry{Event: "cancelled", ID: "job-000001"}); err != nil {
				t.Fatalf("Append: %v", err)
			}
			if err := j.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			entries, err := LoadJournal[journalEntry](path)
			if err != nil {
				t.Fatalf("LoadJournal after reopen: %v", err)
			}
			var got []string
			for _, e := range entries {
				got = append(got, e.Event)
			}
			if strings.Join(got, ",") != strings.Join(tc.want, ",") {
				t.Fatalf("events %v, want %v", got, tc.want)
			}
		})
	}
}
