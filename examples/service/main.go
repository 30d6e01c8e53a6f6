// service is the minnowd quickstart: it starts an in-process
// simulation service, submits the same configuration twice over real
// HTTP, and shows the second submission being served from the
// content-addressed result cache with a byte-identical summary — no
// second simulation runs. The same flow works against a standalone
// `minnowd` binary; see docs/SERVICE.md for the full API.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"time"

	"minnow/internal/service"
)

func main() {
	// One worker shard keeps the demo serial; production servers leave
	// Shards 0 to run one shard per GOMAXPROCS.
	s, err := service.New(service.Config{Shards: 1})
	if err != nil {
		log.Fatal(err)
	}
	addr, stop, err := s.Serve("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer stop() //nolint:errcheck // demo teardown
	base := "http://" + addr
	fmt.Println("minnowd serving on", addr)

	spec, _ := json.Marshal(service.JobSpec{
		Bench:  "SSSP",
		Config: service.ConfigSpec{Threads: 1, Minnow: true, Prefetch: true},
	})

	// First submission: a cache miss — the job queues and simulates.
	first := submitAndWait(base, spec)
	fmt.Printf("first  submission: cached=%-5v status=%s hash=%s...\n", first.Cached, first.Status, first.SummaryHash[:12])

	// Second submission of the identical config: served from the cache,
	// done before the POST even returns.
	second := submitAndWait(base, spec)
	fmt.Printf("second submission: cached=%-5v status=%s hash=%s...\n", second.Cached, second.Status, second.SummaryHash[:12])

	fmt.Println("hashes identical:", first.SummaryHash == second.SummaryHash)
	fmt.Println("summaries byte-identical:", bytes.Equal(first.Summary, second.Summary))

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		log.Fatal(err)
	}
}

// submitAndWait POSTs one job and polls until it reaches a terminal
// status, returning the final view.
func submitAndWait(base string, body []byte) service.JobView {
	resp, err := http.Post(base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		log.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		log.Fatalf("POST /jobs: %d: %s", resp.StatusCode, b)
	}
	var v service.JobView
	if err := json.Unmarshal(b, &v); err != nil {
		log.Fatal(err)
	}
	for v.Status == service.StatusQueued || v.Status == service.StatusRunning {
		time.Sleep(100 * time.Millisecond)
		r, err := http.Get(base + "/jobs/" + v.ID)
		if err != nil {
			log.Fatal(err)
		}
		err = json.NewDecoder(r.Body).Decode(&v)
		r.Body.Close()
		if err != nil {
			log.Fatal(err)
		}
	}
	return v
}
