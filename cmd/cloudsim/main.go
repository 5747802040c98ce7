// Command cloudsim runs the Dropbox-like cloud storage simulator: a blob
// store with a group/partition hierarchy, PUT semantics and directory-level
// HTTP long polling (the paper's Fig. 5 storage role).
//
// Usage:
//
//	cloudsim -listen :8080 [-put-latency 50ms] [-get-latency 30ms]
//
// Administrators (the ibbe-cluster shards) publish each membership update
// as one conditional commit; clients (ibbe-client) long-poll their group
// directory and GET their partition record.
package main

import (
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
	var store storage.Store
	if dataDir == "" {
		store = storage.NewMemStore(storage.Latency{Put: putLat, Get: getLat, Notify: notifyLat})
		log.Printf("cloudsim: in-memory backend (put=%v get=%v notify=%v)", putLat, getLat, notifyLat)
	} else {
		fs, err := storage.NewFileStore(dataDir)
		if err != nil {
			return err
		}
		store = fs
		log.Printf("cloudsim: durable backend at %s", dataDir)
	}
	server := storage.NewServer(store)
	server.PollTimeout = pollTimeout
	log.Printf("cloudsim: serving on %s", listen)
	return http.ListenAndServe(listen, server)
}
