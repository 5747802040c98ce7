// Command metricscheck scrapes a Prometheus text-format endpoint and fails
// loudly when the exposition is malformed or a required metric family is
// missing. It is the CI smoke check behind the metrics-smoke job: start a
// cluster, point metricscheck at GET /metrics, and any rename, retype or
// format regression in the observability plane fails the build before a
// dashboard ever notices.
//
// Usage:
//
//	metricscheck -url http://127.0.0.1:9091/metrics \
//	             -require ibbe_router_requests_total,ibbe_store_ops_total \
//	             [-out scrape.txt] [-timeout 10s] [-retries 20]
//
// -out writes the raw scrape to a file (the CI artifact). -retries polls the
// URL until it answers, so the check can race a cluster that is still
// booting; it always makes at least one attempt. With -url omitted the
// exposition is read from stdin.
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"github.com/ibbesgx/ibbesgx/internal/obs"
)

func main() {
	var (
		url     = flag.String("url", "", "metrics endpoint to scrape (empty = read stdin)")
		require = flag.String("require", "", "comma-separated metric families that must be present")
		out     = flag.String("out", "", "write the raw scrape to this file")
		timeout = flag.Duration("timeout", 10*time.Second, "per-request timeout")
		retries = flag.Int("retries", 20, "scrape attempts before giving up (500ms apart)")
	)
	flag.Parse()

	if err := run(os.Stdout, *url, *require, *out, *timeout, *retries); err != nil {
		fmt.Fprintln(os.Stderr, "metricscheck:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, url, require, out string, timeout time.Duration, retries int) error {
	body, err := scrape(url, timeout, retries)
	if err != nil {
		return err
	}
	if out != "" {
		if err := os.WriteFile(out, body, 0o644); err != nil {
			return fmt.Errorf("writing artifact: %w", err)
		}
	}

	families, err := obs.ValidateExposition(body)
	if err != nil {
		return fmt.Errorf("malformed exposition: %w", err)
	}

	var missing []string
	for _, name := range strings.Split(require, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if _, ok := families[name]; !ok {
			missing = append(missing, name)
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("required families missing: %s", strings.Join(missing, ", "))
	}

	names := make([]string, 0, len(families))
	for name := range families {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "metricscheck: %d families, exposition valid\n", len(names))
	for _, name := range names {
		fmt.Fprintf(w, "  %-40s %s\n", name, families[name])
	}
	return nil
}

func scrape(url string, timeout time.Duration, retries int) ([]byte, error) {
	if url == "" {
		return io.ReadAll(os.Stdin)
	}
	client := &http.Client{Timeout: timeout}
	attempts := max(retries, 1)
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			time.Sleep(500 * time.Millisecond)
		}
		resp, err := client.Get(url)
		if err != nil {
			lastErr = err
			continue
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			lastErr = err
			continue
		}
		if resp.StatusCode != http.StatusOK {
			lastErr = fmt.Errorf("GET %s: %s", url, resp.Status)
			continue
		}
		return body, nil
	}
	return nil, fmt.Errorf("scrape failed after %d attempts: %w", attempts, lastErr)
}
