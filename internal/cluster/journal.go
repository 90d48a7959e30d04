package cluster

// The coordinator journal is a server.Journal of lifecycle events, plus one
// event the daemon does not need: "cell", recording a completed (seed,
// cache key, metrics) cell, so a restarted coordinator resumes a job from
// its last finished seed (the cell's stream bytes live in the
// content-addressed cache under the key).
//
// Journal events:
//
//	{"event":"submitted","id":"cjob-000001","req":{...}}
//	{"event":"started","id":"cjob-000001"}
//	{"event":"cell","id":"cjob-000001","seed":3,"key":"ab12…","metrics":{...}}
//	{"event":"done","id":"cjob-000001"}
//	{"event":"failed","id":"cjob-000001","error":"..."}
//	{"event":"cancelled","id":"cjob-000001"}
//
// A job is recoverable exactly when its last lifecycle event is
// non-terminal; its journaled cells are admitted into the cache index so
// only the unfinished seeds re-dispatch.

import (
	"fmt"

	"greencell/internal/server"
	"greencell/internal/sim"
)

type journalEntry struct {
	Event   string             `json:"event"`
	ID      string             `json:"id"`
	Req     *server.JobRequest `json:"req,omitempty"`
	Seed    int64              `json:"seed,omitempty"`
	Key     string             `json:"key,omitempty"`
	Metrics *sim.SeedMetrics   `json:"metrics,omitempty"`
	Error   string             `json:"error,omitempty"`
}

// jobIDPrefix starts every coordinator job ID. It differs from the
// daemon's "job-" so logs from a mixed fleet read unambiguously.
const jobIDPrefix = "cjob-"

// jobID renders the canonical ID for coordinator job number n.
func jobID(n int) string {
	return fmt.Sprintf("%s%06d", jobIDPrefix, n)
}
