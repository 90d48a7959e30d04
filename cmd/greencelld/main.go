// Command greencelld is the experiment daemon: an HTTP/JSON service that
// accepts simulation jobs (serializable scenario specs plus seeds), runs
// them on a bounded worker pool over the crash-proof replication machinery,
// streams per-slot metrics live, and journals job lifecycles so interrupted
// work recovers on restart. See docs/SERVER.md for the API.
//
// Usage:
//
//	greencelld [-addr host:port] [-journal path] [-workers n]
//
// SIGINT/SIGTERM starts a graceful drain: new submissions get 503, running
// jobs get -drain-grace to finish, and whatever is interrupted stays
// journaled for the next instance to re-run (deterministically, so nothing
// is lost).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"greencell/internal/server"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "greencelld:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("greencelld", flag.ContinueOnError)
	var (
		addr       = fs.String("addr", "127.0.0.1:8080", "listen address (use :0 for an ephemeral port)")
		addrFile   = fs.String("addr-file", "", "write the bound address to this file once listening (for scripts)")
		journal    = fs.String("journal", "greencelld.journal.jsonl", "job journal path (empty disables crash recovery)")
		workers    = fs.Int("workers", 1, "jobs run concurrently (each job also parallelizes across seeds)")
		queueDepth = fs.Int("queue-depth", 256, "max queued jobs before submissions get 503")
		grace      = fs.Duration("drain-grace", 30*time.Second, "how long a drain lets running jobs finish before interrupting them")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	return server.ListenAndServe("greencelld", *addr, *addrFile, *grace, func() (server.Service, error) {
		return server.New(server.Config{
			JournalPath: *journal,
			Workers:     *workers,
			QueueDepth:  *queueDepth,
		})
	})
}
