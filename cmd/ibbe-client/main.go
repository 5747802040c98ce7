// Command ibbe-client is the user side of the demo deployment: it
// provisions its IBBE secret key from the admin service — the ibbe-cluster
// gateway — verifying the enclave certificate chain, then long-polls the
// cloud store for its group's metadata and prints the derived group-key
// fingerprint on every change — including the rotation it observes when
// somebody is revoked.
//
// Usage:
//
//	ibbe-client -admin http://127.0.0.1:9090 -store http://127.0.0.1:8080 \
//	            -user alice@example.com -group designers [-watch]
package main

import (
	"context"
	"crypto/sha256"
	"crypto/x509"
	"encoding/pem"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"syscall"

	"github.com/ibbesgx/ibbesgx/internal/admin"
	"github.com/ibbesgx/ibbesgx/internal/client"
	"github.com/ibbesgx/ibbesgx/internal/kdf"
	"github.com/ibbesgx/ibbesgx/internal/storage"
)

func main() {
	adminURL := flag.String("admin", "http://127.0.0.1:9090", "admin service base URL")
	storeURL := flag.String("store", "http://127.0.0.1:8080", "cloudsim base URL")
	user := flag.String("user", "", "user identity (required)")
	group := flag.String("group", "", "group to join (required)")
	watch := flag.Bool("watch", false, "keep long-polling for key rotations")
	rootPEM := flag.String("root", "", "path to a pinned auditor root certificate (PEM); default trusts the served root")
	flag.Parse()

	if *user == "" || *group == "" {
		fmt.Fprintln(os.Stderr, "ibbe-client: -user and -group are required")
		os.Exit(2)
	}
	if err := run(os.Stdout, *adminURL, *storeURL, *user, *group, *watch, *rootPEM); err != nil {
		fmt.Fprintln(os.Stderr, "ibbe-client:", err)
		os.Exit(1)
	}
}

// run provisions the user's key and prints the group key's fingerprint to
// out: once, or on every change while watch is set.
func run(out io.Writer, adminURL, storeURL, user, group string, watch bool, rootPEM string) error {
	var pinned *x509.Certificate
	if rootPEM != "" {
		raw, err := os.ReadFile(rootPEM)
		if err != nil {
			return err
		}
		block, _ := pem.Decode(raw)
		if block == nil {
			return errors.New("no PEM block in root file")
		}
		if pinned, err = x509.ParseCertificate(block.Bytes); err != nil {
			return fmt.Errorf("parsing pinned root: %w", err)
		}
	}

	log.Printf("ibbe-client: provisioning key for %s…", user)
	scheme, pk, userKey, err := admin.ProvisionOverHTTP(nil, adminURL, user, pinned)
	if err != nil {
		return err
	}
	log.Printf("ibbe-client: enclave certificate verified, key provisioned")

	store := storage.NewHTTPStore(storeURL)
	cli, err := client.New(scheme, pk, user, userKey, store, group)
	if err != nil {
		return err
	}
	// Version-keyed record cache: repeat reads of an unchanged group cost
	// zero store round trips, and the long-poll loop feeds it the observed
	// directory versions so rotations invalidate it without any TTL.
	cli.SetCache(client.NewRecordCache(store))

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if !watch {
		gk, err := cli.GroupKey(ctx)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "group %s key fingerprint: %s\n", group, fingerprint(gk))
		return nil
	}

	log.Printf("ibbe-client: watching group %s…", group)
	err = cli.Watch(ctx, func(gk [kdf.KeySize]byte) {
		fmt.Fprintf(out, "group %s key fingerprint: %s\n", group, fingerprint(gk))
	})
	switch {
	case errors.Is(err, context.Canceled):
		return nil
	case errors.Is(err, client.ErrEvicted):
		fmt.Fprintf(out, "revoked from group %s\n", group)
		return nil
	default:
		return err
	}
}

// fingerprint renders a short non-sensitive identifier for a group key.
func fingerprint(gk [kdf.KeySize]byte) string {
	sum := sha256.Sum256(gk[:])
	return fmt.Sprintf("%x", sum[:8])
}
