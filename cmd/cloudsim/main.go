// Command cloudsim runs the Dropbox-like cloud storage simulator: a blob
// store with a group/partition hierarchy, PUT semantics and directory-level
// HTTP long polling (the paper's Fig. 5 storage role).
//
// Usage:
//
//	cloudsim -listen :8080 [-data DIR] [-put-latency 50ms] [-get-latency 30ms]
//
// With -data the store is durable: every write is appended to a checksummed
// log in DIR and fsynced before it is acknowledged, and a restart replays
// it. The state stays memory-resident either way.
//
// Administrators (the ibbe-cluster shards) publish each membership update
// as one conditional commit; clients (ibbe-client) long-poll their group
// directory and GET their partition record.
package main

import (
	"cmp"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"time"

	"github.com/ibbesgx/ibbesgx/internal/storage"
)

func main() {
	listen := flag.String("listen", ":8080", "address to serve on")
	putLat := flag.Duration("put-latency", 0, "injected latency per mutation")
	getLat := flag.Duration("get-latency", 0, "injected latency per read")
	notifyLat := flag.Duration("notify-latency", 0, "injected latency before long-poll wakeups")
	pollTimeout := flag.Duration("poll-timeout", 30*time.Second, "long-poll round duration")
	dataDir := flag.String("data", "", "directory for durable storage (empty = in-memory)")
	flag.Parse()

	if err := run(*listen, *dataDir, *putLat, *getLat, *notifyLat, *pollTimeout); err != nil {
		fmt.Fprintln(os.Stderr, "cloudsim:", err)
		os.Exit(1)
	}
}

func run(listen, dataDir string, putLat, getLat, notifyLat, pollTimeout time.Duration) error {
	store, err := openStore(dataDir, storage.Latency{Put: putLat, Get: getLat, Notify: notifyLat})
	if err != nil {
		return err
	}
	log.Printf("cloudsim: store %s (put=%v get=%v notify=%v)", cmp.Or(dataDir, "in memory"), putLat, getLat, notifyLat)
	server := storage.NewServer(store)
	server.PollTimeout = pollTimeout
	log.Printf("cloudsim: serving on %s", listen)
	return http.ListenAndServe(listen, server)
}

// openStore returns the store cloudsim serves: in memory without a data
// directory, durable over a log in it with one. Either way it is a MemStore,
// so every commit applies atomically and the injected latencies apply.
func openStore(dataDir string, lat storage.Latency) (*storage.MemStore, error) {
	if dataDir == "" {
		return storage.NewMemStore(lat), nil
	}
	return storage.OpenMemStore(dataDir, lat)
}
