package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"perfvar/internal/serve"
)

// corpusInputs generates the serve-mix corpus and the reference report of
// every archive.
func corpusInputs(cfg runConfig) ([][]byte, []*golden, error) {
	archives := make([][]byte, len(cfg.scale.corpus))
	goldens := make([]*golden, len(archives))
	for i, shape := range cfg.scale.corpus {
		data, err := shape.generate(subSeed(cfg.seed, i))
		if err != nil {
			return nil, nil, fmt.Errorf("corpus archive %d (%s): %w", i, shape.kind, err)
		}
		g, err := goldenOf(data)
		if err != nil {
			return nil, nil, fmt.Errorf("corpus archive %d (%s): %w", i, shape.kind, err)
		}
		archives[i], goldens[i] = data, g
	}
	return archives, goldens, nil
}

// request is one upload of the serve-mix sequence.
type request struct {
	archive int
	view    string
}

// serveSequence returns the request sequence of a serve-mix phase meant to
// last d. Its length is d times the calibrated rate, so it is fixed by d
// and the seed and never by the speed of the commit under test: every
// commit serves the same requests, one pass each.
func serveSequence(cfg runConfig, d time.Duration) []request {
	n := max(1, int(math.Round(d.Seconds()*cfg.scale.serveRate)))
	return requestSequence(cfg.seed, n, len(cfg.scale.corpus))
}

// requestSequence builds the request sequence: archive popularity follows
// Zipf(1.1) over the corpus order, and views split 60 % analysis, 20 %
// heatmap, 10 % lint and 10 % causality. These shares are assumed, not
// measured from perfvard traffic. The counts are exact and only the order
// comes from the seed, so every seed offers the same mix.
func requestSequence(seed int64, n, archives int) []request {
	rng := rand.New(rand.NewSource(seed))
	weights := make([]float64, archives)
	for i := range weights {
		weights[i] = math.Pow(float64(i+1), -1.1)
	}
	arch := apportion(n, weights)
	views := apportion(n, []float64{0.6, 0.2, 0.1, 0.1})
	rng.Shuffle(n, func(i, j int) { arch[i], arch[j] = arch[j], arch[i] })
	rng.Shuffle(n, func(i, j int) { views[i], views[j] = views[j], views[i] })
	viewNames := []string{"analysis", "heatmap.png", "lint", "causality"}
	seq := make([]request, n)
	for i := range seq {
		seq[i] = request{archive: arch[i], view: viewNames[views[i]]}
	}
	return seq
}

// apportion splits n slots among the indices of weights in proportion,
// by largest remainder, and lists each index once per slot.
func apportion(n int, weights []float64) []int {
	var total float64
	for _, w := range weights {
		total += w
	}
	counts := make([]int, len(weights))
	rem := make([]float64, len(weights))
	left := n
	for i, w := range weights {
		exact := float64(n) * w / total
		counts[i] = int(exact)
		rem[i] = exact - float64(counts[i])
		left -= counts[i]
	}
	order := make([]int, len(weights))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return rem[order[a]] > rem[order[b]] })
	for _, i := range order[:left] {
		counts[i]++
	}
	out := make([]int, 0, n)
	for i, c := range counts {
		for ; c > 0; c-- {
			out = append(out, i)
		}
	}
	return out
}

// daemon is an in-process perfvard behind a real loopback HTTP server.
type daemon struct {
	srv *serve.Server
	ts  *httptest.Server
}

// startDaemon starts perfvard with its disk store and session spools
// under dir. The memory tier holds 16 results, fewer than the corpus
// needs, so serve-mix exercises memory hits, disk hits and misses.
func startDaemon(dir string, store bool) (*daemon, error) {
	cfg := serve.Config{CacheEntries: 16, SessionDir: filepath.Join(dir, "sessions")}
	if store {
		cfg.StoreDir = filepath.Join(dir, "store")
	}
	srv, err := serve.New(cfg)
	if err != nil {
		return nil, err
	}
	return &daemon{srv: srv, ts: httptest.NewServer(srv.Handler())}, nil
}

func (d *daemon) close() {
	d.ts.Close()
	d.srv.Close()
}

// oneConnClient is an HTTP client that keeps a single connection open.
func oneConnClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}
}

// response is one answered upload.
type response struct {
	status int
	tier   string // X-Perfvar-Cache
	body   []byte
}

func upload(c *http.Client, base string, data []byte, view string) (response, error) {
	resp, err := c.Post(base+"/api/v1/analyze?view="+view, "application/octet-stream", bytes.NewReader(data))
	if err != nil {
		return response{}, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return response{}, err
	}
	return response{status: resp.StatusCode, tier: resp.Header.Get("X-Perfvar-Cache"), body: body}, nil
}

// viewChecker checks serve-mix responses: the analysis view must equal the
// library's report, and every other view the first response for its
// (archive, view) pair. Safe for concurrent use.
type viewChecker struct {
	goldens []*golden
	mu      sync.Mutex
	first   map[request][]byte
}

func newViewChecker(goldens []*golden) *viewChecker {
	return &viewChecker{goldens: goldens, first: map[request][]byte{}}
}

func (c *viewChecker) check(req request, r response) error {
	if r.status/100 != 2 {
		return fmt.Errorf("%s of archive %d: status %d: %.200s", req.view, req.archive, r.status, r.body)
	}
	if r.tier == "" {
		return fmt.Errorf("%s of archive %d: no X-Perfvar-Cache header", req.view, req.archive)
	}
	if req.view == "analysis" {
		if !bytes.Equal(r.body, c.goldens[req.archive].report) {
			return fmt.Errorf("analysis of archive %d differs from the library report", req.archive)
		}
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	ref, ok := c.first[req]
	if !ok {
		c.first[req] = r.body
		return nil
	}
	if !bytes.Equal(r.body, ref) {
		return fmt.Errorf("%s of archive %d differs from its first response", req.view, req.archive)
	}
	return nil
}

// serveConns is how many connections drive the daemon.
const serveConns = 2

// served is the outcome of one request of a sequence.
type served struct {
	start, end time.Time
	tier       string // X-Perfvar-Cache
	err        error  // transport error or failed check
}

// replay sends every request of seq once, over serveConns connections in
// a closed loop, and returns what each request met, in sequence order.
func replay(base string, archives [][]byte, seq []request, checker *viewChecker) []served {
	out := make([]served, len(seq))
	var next atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < serveConns; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := oneConnClient()
			defer c.CloseIdleConnections()
			for {
				k := int(next.Add(1) - 1)
				if k >= len(seq) {
					return
				}
				req, s := seq[k], &out[k]
				s.start = time.Now()
				resp, err := upload(c, base, archives[req.archive], req.view)
				s.end = time.Now()
				if err == nil {
					err = checker.check(req, resp)
				}
				s.tier, s.err = resp.tier, err
			}
		}()
	}
	wg.Wait()
	return out
}

// runServeMix drives perfvard with two connections in a closed loop over
// one pass of the seeded request sequence.
func runServeMix(cfg runConfig) (*outcome, error) {
	archives, goldens, err := corpusInputs(cfg)
	if err != nil {
		return nil, err
	}
	out := newOutcome()
	seq := serveSequence(cfg, cfg.seconds)
	checker := newViewChecker(goldens)

	// Set-up: start the daemon on an empty store and answer one upload of
	// the most requested archive.
	var d *daemon
	warm := request{archive: 0, view: "analysis"}
	setups := make([]time.Duration, cfg.scale.setupReps)
	for r := range setups {
		dir := filepath.Join(cfg.tmp, fmt.Sprintf("daemon-%d", r))
		t0 := time.Now()
		if d, err = startDaemon(dir, true); err != nil {
			return nil, err
		}
		c := oneConnClient()
		resp, err := upload(c, d.ts.URL, archives[warm.archive], warm.view)
		setups[r] = time.Since(t0)
		c.CloseIdleConnections()
		if err == nil {
			err = checker.check(warm, resp)
		}
		if err != nil {
			d.close()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		if r < len(setups)-1 {
			d.close()
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
		}
	}
	out.setupMetric(setups)
	defer d.close()

	probe := startMemProbe()
	start := time.Now()
	res := replay(d.ts.URL, archives, seq, checker)
	elapsed := time.Since(start)
	probe.finish(out, len(res))

	tiers := map[string]int{}
	for k, s := range res {
		if s.err != nil {
			out.fail("request %d: %v", k, s.err)
			continue
		}
		tiers[s.tier]++
	}
	// Latency windows follow completion order.
	sort.SliceStable(res, func(i, j int) bool { return res[i].end.Before(res[j].end) })
	lat := make([]time.Duration, len(res))
	for i, s := range res {
		lat[i] = s.end.Sub(s.start)
	}
	out.attempted = len(res)
	out.metrics["ops_per_s"] = float64(out.attempted) / elapsed.Seconds()
	out.samples["ops_per_s"] = fmt.Sprintf("(one pass of %d requests in %.1fs over %d connections)", out.attempted, elapsed.Seconds(), serveConns)
	out.latencyMetrics(lat, wholeRun)
	for _, t := range []string{"hit", "disk", "miss", "shared"} {
		out.info["tier_"+t] = float64(tiers[t])
	}
	return out, nil
}
