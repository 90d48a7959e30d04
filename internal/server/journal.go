package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Journal is an append-only JSON-Lines file of E records: the
// crash-consistency mechanism of the daemon's job journal, the cluster
// coordinator's journal, and sweep -resume's checkpoint. Each record is one
// unbuffered write, so a crash loses at most the record being written — a
// torn final line, which LoadJournal drops. A nil *Journal records nothing
// (journalling disabled).
type Journal[E any] struct {
	f *os.File
}

// OpenJournal opens (creating if needed) the journal at path for appending.
// A final line without its newline — a crash mid-append — is completed when
// it holds a whole record (LoadJournal kept it) and cut off otherwise
// (LoadJournal dropped it), so the next record starts a line of its own
// instead of turning the torn tail into mid-file corruption.
func OpenJournal[E any](path string) (*Journal[E], error) {
	data, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	tail := data[bytes.LastIndexByte(data, '\n')+1:]
	var e E
	whole := len(tail) > 0 && json.Unmarshal(tail, &e) == nil
	if len(tail) > 0 && !whole {
		if err := os.Truncate(path, int64(len(data)-len(tail))); err != nil {
			return nil, err
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	if whole {
		if _, err := f.Write([]byte{'\n'}); err != nil {
			return nil, errors.Join(err, f.Close())
		}
	}
	return &Journal[E]{f: f}, nil
}

// Append writes one record.
func (j *Journal[E]) Append(e E) error {
	if j == nil {
		return nil
	}
	b, err := json.Marshal(e)
	if err != nil {
		return err
	}
	_, err = j.f.Write(append(b, '\n'))
	return err
}

// Close closes the journal file.
func (j *Journal[E]) Close() error {
	if j == nil {
		return nil
	}
	return j.f.Close()
}

// LoadJournal reads a journal file into its records. A missing file is an
// empty journal. A torn final line — the signature of a crash mid-append —
// is dropped with a warning to stderr; a torn line anywhere else is
// corruption and an error.
func LoadJournal[E any](path string) ([]E, error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()

	var out []E
	scan := bufio.NewScanner(f)
	scan.Buffer(make([]byte, 0, 1<<20), 1<<20)
	torn := ""
	lineNo := 0
	for scan.Scan() {
		lineNo++
		line := strings.TrimSpace(scan.Text())
		if line == "" {
			continue
		}
		if torn != "" {
			return nil, fmt.Errorf("journal %s: corrupt record at line %s", path, torn)
		}
		var e E
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			torn = strconv.Itoa(lineNo) // tolerated only as the final line
			continue
		}
		out = append(out, e)
	}
	if err := scan.Err(); err != nil {
		return nil, fmt.Errorf("journal %s: %w", path, err)
	}
	if torn != "" {
		fmt.Fprintf(os.Stderr, "journal %s: dropping torn final line %s (interrupted write); its record is lost\n", path, torn)
	}
	return out, nil
}

// The daemon's job journal records job lifecycle events. A job is
// recoverable exactly when its last journaled event is non-terminal
// ("submitted" or "started"): a restarted daemon re-queues it and —
// determinism being the whole point — the re-run produces the same results
// the interrupted run would have. Terminal events keep the job visible as
// history; results and metric streams are not journaled.
//
// Journal events:
//
//	{"event":"submitted","id":"job-000001","req":{...}}
//	{"event":"started","id":"job-000001"}
//	{"event":"done","id":"job-000001"}
//	{"event":"failed","id":"job-000001","error":"..."}
//	{"event":"cancelled","id":"job-000001"}
type journalEntry = LifecycleEvent

// LifecycleEvent is one job lifecycle record of a job journal.
type LifecycleEvent struct {
	Event string      `json:"event"`
	ID    string      `json:"id"`
	Req   *JobRequest `json:"req,omitempty"`
	Error string      `json:"error,omitempty"`
}

// ReplayedJob is one job folded from a journal's lifecycle events.
type ReplayedJob struct {
	ID    string
	Req   JobRequest
	Seeds []int64 // the request's normalized seeds
	Slots int     // per-seed horizon of the request's scenario
	Last  string  // the last lifecycle event
	Error string  // the last event's error message
}

// Interrupted reports whether the job's last event is non-terminal, so a
// restart re-runs it.
func (r ReplayedJob) Interrupted() bool {
	return r.Last == "submitted" || r.Last == "started"
}

// ReplayJobs folds lifecycle events into jobs, in job-number order: events
// group by job ID, the last one gives the job's state, and the submitted
// request is validated again. A job with no submitted event, a request that
// no longer validates, or an unknown last event is skipped with a warning.
// next is the highest job number among IDs "<prefix><number>", so new IDs
// continue after it.
func ReplayJobs(events []LifecycleEvent, prefix string) (jobs []ReplayedJob, next int) {
	num := func(id string) int {
		n, err := strconv.Atoi(strings.TrimPrefix(id, prefix))
		if err != nil {
			return 0 // foreign ID
		}
		return n
	}
	type folded struct {
		req        *JobRequest
		last, errS string
	}
	byID := make(map[string]*folded)
	var ids []string
	for _, e := range events {
		f := byID[e.ID]
		if f == nil {
			f = &folded{}
			byID[e.ID] = f
			ids = append(ids, e.ID)
		}
		if e.Req != nil {
			f.req = e.Req
		}
		f.last, f.errS = e.Event, e.Error
		next = max(next, num(e.ID))
	}
	sort.Slice(ids, func(i, j int) bool { return num(ids[i]) < num(ids[j]) })

	for _, id := range ids {
		f := byID[id]
		if f.req == nil {
			fmt.Fprintf(os.Stderr, "journal: job %s has no submitted event; skipping\n", id)
			continue
		}
		seeds, err := f.req.Normalize()
		if err != nil {
			fmt.Fprintf(os.Stderr, "journal: job %s no longer validates (%v); skipping\n", id, err)
			continue
		}
		sc, err := f.req.Spec.Scenario()
		if err != nil {
			fmt.Fprintf(os.Stderr, "journal: job %s spec no longer materializes (%v); skipping\n", id, err)
			continue
		}
		switch f.last {
		case "submitted", "started", "done", "failed", "cancelled":
			jobs = append(jobs, ReplayedJob{ID: id, Req: *f.req, Seeds: seeds, Slots: sc.Slots, Last: f.last, Error: f.errS})
		default:
			fmt.Fprintf(os.Stderr, "journal: job %s has unknown event %q; skipping\n", id, f.last)
		}
	}
	return jobs, next
}
