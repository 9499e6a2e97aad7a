package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/gb/gbd"
)

// gbdWorkload drives an in-process gbd.Server behind a loopback listener
// as a closed loop: clients on as many tenants each send their next
// request only when the previous reply has been read, as gbd's own
// callers (gbtune -url, gbd -post) do. One op is a round of a fixed
// request count: mostly /v1/runs of a hot set warmed during set-up
// (determinism-cache hits), some SSE /v1/sweeps of a small GP/GP1 spec
// with a fresh seed (misses that simulate), and a /v1/tune of the smoke
// tune spec with a fresh scenario seed.
//
// The shares of the three classes and the size of the hot set are
// assumptions: the repository records no gbd traffic, and its callers
// each send one sweep or one tune and then the same one again. They are
// chosen so that every round holds all three classes and each latency
// metric falls on one class: hits are most requests (the median), fresh
// sweeps one in sweepEvery, and the one tune per round is more than 1 %
// of requests, so the 99th percentile lands on tunes.
type gbdWorkload struct {
	name       string
	nworkers   int // server pool size
	clients    int
	hotN       int
	perRound   int
	sweepEvery int    // every sweepEvery-th request of a round is a fresh sweep
	tunePath   string // tune spec whose scenario seed each tune request replaces

	seed      int64
	hotReqs   [][]byte // request bodies of the hot set
	hotBodies [][]byte // response bodies served at warm-up
	tuneSpec  map[string]json.RawMessage

	client *http.Client
	server *gbdServer
	round  int

	setupIssues []string
	sample      []sampled // round 0's fresh requests, replayed on a cold server
	ref         string    // digest of the hot set and round-0 sample bodies

	// Traced-phase observations.
	mu       sync.Mutex
	metrics0 map[string]float64
	hitMs    []float64
	missMs   []float64
	rungMs   []float64
}

type sampled struct {
	q    gbdReq
	body []byte
}

const (
	reqHot = iota
	reqSweep
	reqTune
)

var reqPaths = [...]string{reqHot: "/v1/runs", reqSweep: "/v1/sweeps", reqTune: "/v1/tune"}

type gbdReq struct {
	kind int
	hot  int // index into the hot set (reqHot)
	body []byte
}

// Headers the benchmark's client sets so the handler wrapper can tie its
// span to the client's.
const (
	reqIDHeader   = "X-Bench-Req"
	spanIDHeader  = "X-Bench-Span"
	tenantsPrefix = "bench-tenant-"
)

func newGBDWorkload(name string, workers, clients, hotN, perRound, sweepEvery int, tunePath string) *gbdWorkload {
	return &gbdWorkload{name: name, nworkers: workers, clients: clients, hotN: hotN,
		perRound: perRound, sweepEvery: sweepEvery, tunePath: tunePath}
}

// The cache grows with every round, so the heap peak is taken over a fixed
// round count: over the whole run it would grow with throughput.
func (w *gbdWorkload) shape() shape {
	return shape{unit: "round", workers: w.nworkers, setupReps: 5, setupBatch: 1, heapOps: 100}
}

const hotSpecTemplate = `{"name":"hot-%d","cluster":{"profile":"modern"},` +
	`"workload":{"kind":"synthetic","iters":20,"mflopsPerIter":3000},"scales":[%d],"modes":["%s"],` +
	`"checkpoint":{"intervalS":1},"failures":{"process":"poisson","mtbfS":3},"reps":1,"seed":%d}`

const sweepSpecTemplate = `{"name":"fresh","cluster":{"profile":"modern"},` +
	`"workload":{"kind":"synthetic","iters":20,"mflopsPerIter":3000},"scales":[16,32],"modes":["GP","GP1"],` +
	`"checkpoint":{"intervalS":1},"failures":{"process":"poisson","mtbfS":3},"reps":1,"seed":%d}`

func (w *gbdWorkload) prepare(ctx context.Context, seed int64) error {
	w.seed = seed
	rng := rand.New(rand.NewPCG(uint64(seed), 0))
	// Shapes cycle by index and only the seeds come from the workload
	// seed, so warming the hot set costs about the same at every seed.
	scales := []int{16, 32, 64}
	modes := []string{"GP", "GP1", "GP4"}
	w.hotReqs = nil
	for i := 0; i < w.hotN; i++ {
		spec := fmt.Sprintf(hotSpecTemplate, i, scales[i%len(scales)], modes[i%len(modes)], freshSeed(rng))
		w.hotReqs = append(w.hotReqs, runRequest(spec))
	}
	raw, err := os.ReadFile(w.tunePath)
	if err != nil {
		return fmt.Errorf("%s: tune spec: %w", w.name, err)
	}
	if err := json.Unmarshal(raw, &w.tuneSpec); err != nil {
		return fmt.Errorf("%s: tune spec %s: %w", w.name, w.tunePath, err)
	}
	w.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     w.clients,
		MaxIdleConnsPerHost: w.clients,
		DisableCompression:  true,
	}}
	return nil
}

func freshSeed(rng *rand.Rand) int64 { return 1 + rng.Int64N(1<<40) }

func runRequest(spec string) []byte {
	b, _ := json.Marshal(gbd.RunRequest{Spec: json.RawMessage(spec)})
	return b
}

// tuneRequest returns a /v1/tune body: the tune spec with its scenario
// seed replaced.
func (w *gbdWorkload) tuneRequest(seed int64) ([]byte, error) {
	var sc map[string]json.RawMessage
	if err := json.Unmarshal(w.tuneSpec["scenario"], &sc); err != nil {
		return nil, fmt.Errorf("tune spec scenario: %w", err)
	}
	sc["seed"] = json.RawMessage(strconv.FormatInt(seed, 10))
	spec := map[string]json.RawMessage{}
	for k, v := range w.tuneSpec {
		spec[k] = v
	}
	scb, err := json.Marshal(sc)
	if err != nil {
		return nil, err
	}
	spec["scenario"] = scb
	specb, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	return json.Marshal(gbd.TuneRequest{Spec: specb})
}

// roundRequests generates round r's requests from the workload seed.
func (w *gbdWorkload) roundRequests(r int) ([]gbdReq, error) {
	rng := rand.New(rand.NewPCG(uint64(w.seed), uint64(r)+1))
	reqs := make([]gbdReq, w.perRound)
	for i := range reqs {
		switch {
		case i == w.perRound/2:
			body, err := w.tuneRequest(freshSeed(rng))
			if err != nil {
				return nil, err
			}
			reqs[i] = gbdReq{kind: reqTune, body: body}
		case i%w.sweepEvery == w.sweepEvery-1:
			reqs[i] = gbdReq{kind: reqSweep, body: runRequest(fmt.Sprintf(sweepSpecTemplate, freshSeed(rng)))}
		default:
			h := rng.IntN(len(w.hotReqs))
			reqs[i] = gbdReq{kind: reqHot, hot: h, body: w.hotReqs[h]}
		}
	}
	return reqs, nil
}

// gbdServer is one gbd.Server behind a loopback listener.
type gbdServer struct {
	srv     *gbd.Server
	handler *benchHandler
	hs      *http.Server
	url     string
	done    chan struct{}
}

func startServer(workers int) (*gbdServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	srv := gbd.NewServer(gbd.Options{Workers: workers})
	s := &gbdServer{srv: srv, handler: &benchHandler{next: srv}, url: "http://" + ln.Addr().String(),
		done: make(chan struct{})}
	s.hs = &http.Server{Handler: s.handler, ReadHeaderTimeout: 30 * time.Second}
	go func() {
		defer close(s.done)
		_ = s.hs.Serve(ln) // returns http.ErrServerClosed once stop closes it
	}()
	return s, nil
}

// stop closes the listener and connections, waits for Serve to return,
// then drains the daemon's pool.
func (s *gbdServer) stop() {
	_ = s.hs.Close() // the listener error, if any, is Serve's to report
	<-s.done
	_ = s.srv.Close() // always nil
}

// benchHandler wraps the daemon's public http.Handler. With a tracer set
// it records a handler span sharing the client's request id, and the
// handler's latency.
type benchHandler struct {
	next http.Handler
	tr   atomic.Pointer[tracer]
	mu   sync.Mutex
	lat  []float64 // ms
}

func (h *benchHandler) ServeHTTP(rw http.ResponseWriter, r *http.Request) {
	tr := h.tr.Load()
	if tr == nil {
		h.next.ServeHTTP(rw, r)
		return
	}
	parent, _ := strconv.ParseInt(r.Header.Get(spanIDHeader), 10, 64)
	id := tr.begin("handler "+r.URL.Path, r.Header.Get(reqIDHeader), parent)
	t0 := time.Now()
	h.next.ServeHTTP(rw, r)
	d := time.Since(t0)
	tr.end(id)
	h.mu.Lock()
	h.lat = append(h.lat, ms(d))
	h.mu.Unlock()
}

// setup starts the server and warms the hot set, keeping the bytes each
// hot spec was first served as.
func (w *gbdWorkload) setup(ctx context.Context) error {
	s, err := startServer(w.nworkers)
	if err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	w.server = s
	bodies := make([][]byte, len(w.hotReqs))
	for i, body := range w.hotReqs {
		res, err := w.send(ctx, s.url, nil, 0, "warm", tenantsPrefix+"0", gbdReq{kind: reqHot, hot: i, body: body})
		if err != nil {
			return fmt.Errorf("%s: warming hot spec %d: %w", w.name, i, err)
		}
		bodies[i] = res.body
	}
	if w.hotBodies != nil {
		for i := range bodies {
			if !bytes.Equal(bodies[i], w.hotBodies[i]) {
				w.setupIssues = append(w.setupIssues, fmt.Sprintf("hot spec %d served different bytes on a fresh server", i))
			}
		}
	}
	w.hotBodies = bodies
	return nil
}

func (w *gbdWorkload) close() {
	if w.server != nil {
		w.server.stop()
		w.server = nil
	}
	if w.client != nil {
		w.client.CloseIdleConnections()
	}
}

// reqResult is one request's outcome as the client saw it.
type reqResult struct {
	body    []byte // normalized response body
	latency time.Duration
	rungs   []time.Duration // tune: gap before each rung event
}

// send issues one request and reads the whole reply. SSE replies are
// normalized to matrix order so that bodies compare across worker counts.
func (w *gbdWorkload) send(ctx context.Context, url string, tr *tracer, parent int64, reqID, tenant string, q gbdReq) (reqResult, error) {
	path := reqPaths[q.kind]
	span := tr.begin("request "+path, reqID, parent)
	defer tr.end(span)
	t0 := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+path, bytes.NewReader(q.body))
	if err != nil {
		return reqResult{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(gbd.TenantHeader, tenant)
	req.Header.Set(reqIDHeader, reqID)
	req.Header.Set(spanIDHeader, strconv.FormatInt(span, 10))
	if q.kind != reqHot {
		req.Header.Set("Accept", "text/event-stream")
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return reqResult{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return reqResult{}, fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(b))
	}
	var res reqResult
	switch q.kind {
	case reqHot:
		res.body, err = io.ReadAll(resp.Body)
		if err == nil && !json.Valid(res.body) {
			err = errors.New("/v1/runs: undecodable body")
		}
	case reqSweep:
		res.body, err = readSweep(resp.Body)
	case reqTune:
		res.body, res.rungs, err = readTune(resp.Body, t0, tr, span, reqID)
	}
	res.latency = time.Since(t0)
	return res, err
}

type sseEvent struct {
	event, id, data string
	at              time.Time
}

// readSSE reads a whole event stream, stamping each event's arrival.
func readSSE(r io.Reader, each func(sseEvent)) error {
	br := bufio.NewReader(r)
	var ev sseEvent
	for {
		line, err := br.ReadString('\n')
		line = strings.TrimRight(line, "\n")
		switch {
		case line == "" && ev.event != "":
			ev.at = time.Now()
			each(ev)
			ev = sseEvent{}
		case strings.HasPrefix(line, "event: "):
			ev.event = line[len("event: "):]
		case strings.HasPrefix(line, "id: "):
			ev.id = line[len("id: "):]
		case strings.HasPrefix(line, "data: "):
			ev.data = line[len("data: "):]
		}
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// readSweep reads an SSE sweep and renders it in matrix order: the head,
// then each cell by id. Completion order depends on scheduling, matrix
// order does not.
func readSweep(r io.Reader) ([]byte, error) {
	var head string
	cells := map[int]string{}
	var done, failed string
	err := readSSE(r, func(ev sseEvent) {
		switch ev.event {
		case "sweep":
			head = ev.data
		case "cell":
			i, err := strconv.Atoi(ev.id)
			if err != nil {
				i = -1 - len(cells)
			}
			cells[i] = ev.data
		case "done":
			done = ev.data
		case "error":
			failed = ev.data
		}
	})
	if err != nil {
		return nil, err
	}
	if failed != "" {
		return nil, fmt.Errorf("/v1/sweeps: error event: %s", failed)
	}
	var d struct {
		Cells int `json:"cells"`
	}
	if err := json.Unmarshal([]byte(done), &d); err != nil || head == "" {
		return nil, errors.New("/v1/sweeps: stream without head or done event")
	}
	var b strings.Builder
	b.WriteString(head + "\n")
	for i := 0; i < d.Cells; i++ {
		c, ok := cells[i]
		if !ok || !json.Valid([]byte(c)) {
			return nil, fmt.Errorf("/v1/sweeps: cell %d missing or undecodable", i)
		}
		b.WriteString(c + "\n")
	}
	if len(cells) != d.Cells {
		return nil, fmt.Errorf("/v1/sweeps: %d cell events for %d cells", len(cells), d.Cells)
	}
	return []byte(b.String()), nil
}

// readTune reads an SSE tune stream (already in ladder order) and returns
// it with the gap before each rung event; with a tracer, each gap is a
// rung span under the request's span.
func readTune(r io.Reader, t0 time.Time, tr *tracer, parent int64, reqID string) ([]byte, []time.Duration, error) {
	var b strings.Builder
	var gaps []time.Duration
	prev := t0
	var sawDone bool
	var failed string
	err := readSSE(r, func(ev sseEvent) {
		fmt.Fprintf(&b, "%s %s %s\n", ev.event, ev.id, ev.data)
		switch ev.event {
		case "rung":
			gaps = append(gaps, ev.at.Sub(prev))
			tr.record("rung "+ev.id, reqID, parent, prev, ev.at)
		case "done":
			sawDone = json.Valid([]byte(ev.data))
		case "error":
			failed = ev.data
		}
		prev = ev.at
	})
	switch {
	case err != nil:
		return nil, nil, err
	case failed != "":
		return nil, nil, fmt.Errorf("/v1/tune: error event: %s", failed)
	case !sawDone:
		return nil, nil, errors.New("/v1/tune: stream without a decodable done event")
	}
	return []byte(b.String()), gaps, nil
}

func (w *gbdWorkload) op(ctx context.Context, tr *tracer, parent int64) (opStats, error) {
	round := w.round
	w.round++
	reqs, err := w.roundRequests(round)
	if err != nil {
		return opStats{}, err
	}
	if tr != nil {
		w.server.handler.tr.Store(tr)
		defer w.server.handler.tr.Store(nil)
		if w.metrics0 == nil {
			if w.metrics0, err = w.scrape(ctx); err != nil {
				return opStats{}, err
			}
		}
	}
	results := make([]reqResult, len(reqs))
	errs := make([]error, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < w.clients; c++ {
		wg.Add(1)
		go func(tenant string) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				id := fmt.Sprintf("r%d-%d", round, i)
				results[i], errs[i] = w.send(ctx, w.server.url, tr, parent, id, tenant, reqs[i])
			}
		}(tenantsPrefix + strconv.Itoa(c))
	}
	wg.Wait()

	st := opStats{attempted: len(reqs)}
	for i, q := range reqs {
		res, err := results[i], errs[i]
		if err == nil && q.kind == reqHot && !bytes.Equal(res.body, w.hotBodies[q.hot]) {
			err = fmt.Errorf("hot spec %d: body differs from the bytes served at warm-up", q.hot)
		}
		if err != nil {
			st.failed++
			st.issues = append(st.issues, fmt.Sprintf("round %d request %d: %v", round, i, err))
			continue
		}
		st.latencies = append(st.latencies, ms(res.latency))
		if round == 0 && q.kind != reqHot {
			w.sample = append(w.sample, sampled{q: q, body: res.body})
		}
		if tr != nil {
			w.mu.Lock()
			switch q.kind {
			case reqHot:
				w.hitMs = append(w.hitMs, ms(res.latency))
			case reqSweep:
				w.missMs = append(w.missMs, ms(res.latency))
			case reqTune:
				for _, g := range res.rungs {
					w.rungMs = append(w.rungMs, ms(g))
				}
			}
			w.mu.Unlock()
		}
	}
	return st, nil
}

// finish checks what the timed rounds could not: round 0's fresh requests
// and the hot set replayed on a cold server with another pool size must
// give the same bytes, and at the default seed their digest must match
// the committed one.
func (w *gbdWorkload) finish(ctx context.Context) (opStats, error) {
	st := opStats{attempted: 1 + len(w.hotReqs) + len(w.sample)}
	if len(w.setupIssues) > 0 {
		st.failed++
		st.issues = append(st.issues, w.setupIssues...)
	}
	// Close the timed server's idle connections first, so the client holds
	// at most its connection limit across both servers.
	w.client.CloseIdleConnections()
	cold, err := startServer(otherWorkers(w.nworkers))
	if err != nil {
		return st, err
	}
	defer cold.stop()
	var all bytes.Buffer
	check := func(what string, q gbdReq, want []byte) {
		res, err := w.send(ctx, cold.url, nil, 0, "replay", tenantsPrefix+"0", q)
		if err == nil && !bytes.Equal(res.body, want) {
			err = errors.New("bytes differ on a cold server")
		}
		if err != nil {
			st.failed++
			st.issues = append(st.issues, fmt.Sprintf("replay %s: %v", what, err))
		}
		all.Write(want)
	}
	for i, body := range w.hotReqs {
		check(fmt.Sprintf("hot spec %d", i), gbdReq{kind: reqHot, hot: i, body: body}, w.hotBodies[i])
	}
	for i, s := range w.sample {
		check(fmt.Sprintf("fresh request %d of round 0", i), s.q, s.body)
	}
	if ref, ok := committedDigest(w.name, w.seed); ok {
		if got := digest(all.Bytes()); got != ref {
			st.failed++
			st.issues = append(st.issues, fmt.Sprintf("hot set and round-0 sample digest %s, committed %s", got, ref))
		}
	}
	w.ref = digest(all.Bytes())
	return st, nil
}

// scrape reads the daemon's /metrics exposition, summing each family
// over its label sets.
func (w *gbdWorkload) scrape(ctx context.Context) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.server.url+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		out[name] += v
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	return out, nil
}

func (w *gbdWorkload) layers(ops int) map[string]float64 {
	m1, err := w.scrape(context.Background())
	if err != nil || w.metrics0 == nil {
		return nil
	}
	d := func(name string) float64 { return m1[name] - w.metrics0[name] }
	w.mu.Lock()
	defer w.mu.Unlock()
	w.server.handler.mu.Lock()
	handler := median(w.server.handler.lat)
	w.server.handler.mu.Unlock()
	out := map[string]float64{
		"gbd.hit_p50_ms":      median(w.hitMs),
		"gbd.miss_p50_ms":     median(w.missMs),
		"gbd.handler_p50_ms":  handler,
		"gbd.cells_scheduled": d("gbd_cells_scheduled_total") / float64(ops),
		"tune.rung_ms":        median(w.rungMs),
		"tune.cells":          d("tune_cells_total") / float64(ops),
		"tune.memo_hits":      d("tune_cache_hits_total") / float64(ops),
	}
	if hits, misses := d("gbd_cache_hits_total"), d("gbd_cache_misses_total"); hits+misses > 0 {
		out["gbd.hit_ratio"] = hits / (hits + misses)
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func (w *gbdWorkload) refDigest() string { return w.ref }
