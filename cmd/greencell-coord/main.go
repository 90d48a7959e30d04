// Command greencell-coord is the cluster coordinator: it shards simulation
// jobs seed-by-seed across a fleet of greencelld workers under leases,
// re-dispatches lost work, caches every completed cell by content address,
// and serves the same HTTP/JSON API as a single daemon — so greencellsim
// -submit and sweep -coord scale from one machine to a cluster by changing
// a URL. See docs/CLUSTER.md for the architecture and failure matrix.
//
// Usage:
//
//	greencell-coord -fleet http://h1:8080,http://h2:8080 [-addr host:port]
//	                [-journal path] [-cache-dir path] [-lease-timeout d]
//
// SIGINT/SIGTERM starts a graceful drain: new submissions get 503, running
// jobs get -drain-grace to finish, and interrupted jobs stay journaled —
// the next coordinator resumes them, serving already-finished seeds from
// the cache and re-dispatching only the remainder.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"greencell/internal/cluster"
	"greencell/internal/rng"
	"greencell/internal/server"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "greencell-coord:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("greencell-coord", flag.ContinueOnError)
	var (
		addr      = fs.String("addr", "127.0.0.1:8090", "listen address (use :0 for an ephemeral port)")
		addrFile  = fs.String("addr-file", "", "write the bound address to this file once listening (for scripts)")
		fleet     = fs.String("fleet", "", "comma-separated greencelld worker base URLs")
		journal   = fs.String("journal", "greencell-coord.journal.jsonl", "coordinator journal path (empty disables crash recovery)")
		cacheDir  = fs.String("cache-dir", "", "content-addressed result cache directory (empty keeps results in memory)")
		cacheMax  = fs.Int64("cache-max-bytes", 0, "total result-cache blob bytes before LRU eviction (0 = uncapped)")
		queue     = fs.Int("queue-depth", 256, "max concurrently tracked non-terminal jobs before submissions get 503")
		lease     = fs.Duration("lease-timeout", 2*time.Minute, "per-cell lease deadline; expired leases re-dispatch")
		poll      = fs.Duration("poll-interval", 100*time.Millisecond, "dispatcher tick: lease polls and dispatch scans")
		hbEvery   = fs.Duration("heartbeat-interval", time.Second, "worker /readyz probe interval")
		hbTimeout = fs.Duration("heartbeat-timeout", time.Second, "worker /readyz probe timeout")
		brkN      = fs.Int("breaker-threshold", 3, "consecutive worker failures before eviction")
		brkCool   = fs.Duration("breaker-cooldown", 5*time.Second, "how long an evicted worker sits out before a half-open probe")
		attempts  = fs.Int("max-attempts", 4, "lease attempts per cell before it fails permanently")
		inflight  = fs.Int("per-worker-inflight", 2, "max leases simultaneously placed on one worker")
		rpcTries  = fs.Int("rpc-attempts", 4, "attempts per worker RPC (transient failures back off and retry)")
		rpcTO     = fs.Duration("rpc-timeout", 10*time.Second, "per-attempt timeout on each worker RPC")
		jitterSd  = fs.Int64("jitter-seed", 1, "seed for retry-backoff jitter (deterministic; decorrelates a fleet of clients)")
		grace     = fs.Duration("drain-grace", 30*time.Second, "how long a drain lets running jobs finish before interrupting them")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	var workers []string
	for _, u := range strings.Split(*fleet, ",") {
		if u = strings.TrimSpace(u); u != "" {
			workers = append(workers, u)
		}
	}
	if len(workers) == 0 {
		fmt.Fprintln(os.Stderr, "greencell-coord: warning: empty -fleet; jobs will only complete from cache")
	}

	return server.ListenAndServe("greencell-coord", *addr, *addrFile, *grace, func() (server.Service, error) {
		return cluster.New(cluster.Config{
			Workers:           workers,
			JournalPath:       *journal,
			CacheDir:          *cacheDir,
			CacheMaxBytes:     *cacheMax,
			QueueDepth:        *queue,
			LeaseTimeout:      *lease,
			PollInterval:      *poll,
			HeartbeatInterval: *hbEvery,
			HeartbeatTimeout:  *hbTimeout,
			BreakerThreshold:  *brkN,
			BreakerCooldown:   *brkCool,
			MaxAttempts:       *attempts,
			PerWorkerInflight: *inflight,
			RPC: &cluster.RetryPolicy{
				MaxAttempts:    *rpcTries,
				AttemptTimeout: *rpcTO,
				Rand:           rng.New(*jitterSd).Split("coord-rpc-jitter"),
			},
		})
	})
}
