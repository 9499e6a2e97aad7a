// Command gbd serves the simulator as a long-running multi-tenant daemon:
// the gb facade behind the versioned v1 HTTP/JSON wire API (see API.md).
//
//	gbd -addr 127.0.0.1:8080 -workers 8 -horizon 86400
//
// Endpoints: POST /v1/runs, POST /v1/sweeps (JSON or SSE streaming),
// POST /v1/tune (closed-loop policy search; JSON or SSE rung progress),
// GET /v1/experiments, GET /metrics (Prometheus), GET /healthz.
// SIGTERM/SIGINT drain gracefully: in-flight requests finish (up to
// -drain), new ones get 503, then the process exits 0.
//
// The binary doubles as its own test client:
//
//	gbd -post spec.json -url http://127.0.0.1:8080
//
// posts the scenario as an SSE sweep, collects the streamed cells, and
// prints them one per line in matrix order — deterministic output,
// whatever order the cells completed in — so a golden diff works.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/gb/gbd"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:8080", "listen address (daemon mode); port 0 picks a free port")
		addrFile = flag.String("addr-file", "", "write the bound listen address to this file once serving (for scripts using port 0)")
		workers  = flag.Int("workers", 0, "shared cell pool size; 0 means GOMAXPROCS")
		horizonS = flag.Float64("horizon", 0, "default per-cell virtual-time horizon in seconds; 0 means unlimited")
		maxCells = flag.Int("max-cells", 0, "largest sweep matrix accepted; 0 means 4096")
		drain    = flag.Duration("drain", 10*time.Second, "graceful drain window after SIGTERM before aborting in-flight work")
		post     = flag.String("post", "", "client mode: POST this scenario file as an SSE sweep and print cells in matrix order")
		url      = flag.String("url", "http://127.0.0.1:8080", "daemon base URL (client mode)")
		tenant   = flag.String("tenant", "", "tenant header value (client mode)")
	)
	flag.Parse()

	if *post != "" {
		if err := postSweep(*url, *post, *tenant); err != nil {
			log.Fatalf("gbd: %v", err)
		}
		return
	}
	if err := serve(*addr, *addrFile, *drain, gbd.Options{
		Workers:         *workers,
		DefaultHorizonS: *horizonS,
		MaxCells:        *maxCells,
	}); err != nil {
		log.Fatalf("gbd: %v", err)
	}
}

func serve(addr, addrFile string, drain time.Duration, opts gbd.Options) error {
	s := gbd.NewServer(opts)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	if addrFile != "" {
		if err := os.WriteFile(addrFile, []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
			return err
		}
	}
	httpSrv := newHTTPServer(s)
	log.Printf("gbd: serving v1 API on http://%s", ln.Addr())

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	select {
	case err := <-errc:
		return err
	case sig := <-sigc:
		log.Printf("gbd: %v: draining (up to %v)", sig, drain)
	}

	// Past the grace window, cut in-flight work: request contexts cancel,
	// queued cells become no-ops, and the drain below completes promptly.
	grace := time.AfterFunc(drain, func() {
		log.Printf("gbd: drain window expired, aborting in-flight work")
		s.Abort()
	})
	defer grace.Stop()

	httpSrv.Close() // stop the listener; handler-level drain does the waiting
	if err := s.Close(); err != nil {
		return err
	}
	log.Printf("gbd: drained, %d cells cached, tenants %v", s.CachedCells(), s.Tenants())
	return nil
}

// Connection timeouts. They bound how long a slow or idle client can hold a
// connection; requests are small JSON bodies (at most 1 MiB). There is no
// write timeout: SSE sweeps and tune streams legitimately run for minutes.
const (
	readHeaderTimeout = 10 * time.Second
	readTimeout       = 30 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer wraps the daemon's handler in an http.Server with the
// connection timeouts above.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// postSweep is the client mode: stream an SSE sweep and print its cells
// in matrix order.
func postSweep(base, specPath, tenant string) error {
	spec, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	body := fmt.Sprintf(`{"spec":%s}`, strings.TrimSpace(string(spec)))
	req, err := http.NewRequest("POST", base+"/v1/sweeps", strings.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", "text/event-stream")
	if tenant != "" {
		req.Header.Set(gbd.TenantHeader, tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := bufio.NewReader(resp.Body).ReadString('\n')
		return fmt.Errorf("POST /v1/sweeps: %s: %s", resp.Status, strings.TrimSpace(msg))
	}

	cells := map[int]string{}
	var done bool
	event, id, data := "", -1, ""
	flush := func() error {
		switch event {
		case "cell":
			cells[id] = data
		case "error":
			return fmt.Errorf("sweep failed: %s", data)
		case "done":
			done = true
		}
		event, id, data = "", -1, ""
		return nil
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if err := flush(); err != nil {
				return err
			}
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "id: "):
			id, _ = strconv.Atoi(strings.TrimPrefix(line, "id: "))
		case strings.HasPrefix(line, "data: "):
			data = strings.TrimPrefix(line, "data: ")
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if !done {
		return fmt.Errorf("stream ended without a done event (%d cells received)", len(cells))
	}

	idxs := make([]int, 0, len(cells))
	for i := range cells {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	out := bufio.NewWriter(os.Stdout)
	for _, i := range idxs {
		fmt.Fprintln(out, cells[i])
	}
	return out.Flush()
}
