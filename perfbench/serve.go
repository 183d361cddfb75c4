package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"antsearch/internal/scenario"
	"antsearch/internal/xrand"
)

// The serve workloads drive the antserve binary built from the checkout, with
// a durable store in a fresh directory and the default adaptive split. Every
// request is the same 72-cell grid with its own seed. serve-hit sends seeds
// from a pool that set-up computed and stored through an earlier boot, so
// every row is a cache hit; serve-miss sends fresh seeds, so every cell is
// computed and appended to the store.
const (
	serveTrials = 16
	serveCells  = 72
	servePool   = 8  // seeds set-up computes and stores
	serveBoots  = 11 // timed boots with the warm store
	// missRequests is the fewest requests a serve-miss run sends. Its p95
	// is the run's most sensitive figure to the host's slow spells, and
	// with minTailSamples it moved by 20% of its median between runs.
	missRequests = 300
)

var (
	serveScenarios = []string{"known-k", "uniform", "harmonic-restart", "single-spiral"}
	serveKs        = []int{1, 2, 4, 8, 16, 32}
	serveDs        = []int{8, 16, 32}
)

type requestClass int

const (
	hitClass requestClass = iota
	missClass
)

// serveGrid is the grid of every request, as the in-process scenario.Grid.
func serveGrid(seed uint64) scenario.Grid {
	return scenario.Grid{
		Scenarios: serveScenarios,
		Params:    scenario.Params{Epsilon: 0.5, Delta: 0.5},
		Ks:        serveKs,
		Ds:        serveDs,
		Trials:    serveTrials,
		Seed:      seed,
	}
}

// serveBody is the /sweep request body for serveGrid(seed).
func serveBody(seed uint64) []byte {
	b, err := json.Marshal(map[string]any{
		"scenarios": serveScenarios,
		"params":    map[string]float64{"epsilon": 0.5, "delta": 0.5},
		"ks":        serveKs,
		"ds":        serveDs,
		"trials":    serveTrials,
		"seed":      seed,
	})
	if err != nil {
		panic(err) // a map of plain values always encodes
	}
	return b
}

// poolSeed and freshSeed keep the two request classes' seeds disjoint.
func poolSeed(seed uint64, i int) uint64 { return xrand.DeriveSeed(seed, 0x5e, 1, uint64(i)) }
func freshSeed(seed, stream uint64, i int) uint64 {
	return xrand.DeriveSeed(seed, 0x5e, 2, stream, uint64(i))
}

// server is one running antserve process.
type server struct {
	cmd  *exec.Cmd
	addr string
	done chan error
}

// startServer boots antserve on a free loopback port with the given store
// and returns once /healthz answers, together with the boot time.
func startServer(binary, storeDir string) (*server, time.Duration, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	cmd := exec.Command(binary, "-addr", addr, "-store-dir", storeDir)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting antserve: %w", err)
	}
	s := &server{cmd: cmd, addr: addr, done: make(chan error, 1)}
	go func() { s.done <- cmd.Wait() }()
	client := &http.Client{Timeout: time.Second}
	for {
		resp, err := client.Get("http://" + addr + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body) // drained only to reuse the connection
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(start), nil
			}
		}
		select {
		case err := <-s.done:
			return nil, 0, fmt.Errorf("antserve exited during boot: %v", err)
		case <-time.After(200 * time.Microsecond):
		}
		if time.Since(start) > 30*time.Second {
			s.kill()
			return nil, 0, errors.New("antserve did not become healthy within 30s")
		}
	}
}

// freeAddr returns a loopback address with a port that was free a moment
// ago.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// stop shuts the server down gracefully (SIGTERM, which snapshots the
// store) and waits for it to exit; a server that does not exit within 20s is
// killed and reported.
func (s *server) stop() error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("signalling antserve: %w", err)
	}
	select {
	case err := <-s.done:
		if err != nil {
			return fmt.Errorf("antserve exited uncleanly: %w", err)
		}
		return nil
	case <-time.After(20 * time.Second):
		s.kill()
		return errors.New("antserve did not shut down within 20s")
	}
}

// kill stops the server without grace and waits for it.
func (s *server) kill() {
	_ = s.cmd.Process.Kill() // the process may already have exited
	<-s.done
}

func (s *server) pid() string { return strconv.Itoa(s.cmd.Process.Pid) }

// cpuTime returns the server's user plus system CPU time from /proc.
func (s *server) cpuTime() (time.Duration, error) {
	b, err := os.ReadFile("/proc/" + s.pid() + "/stat")
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th fields of the whole line.
	rest := string(b[bytes.LastIndexByte(b, ')')+2:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line %q", rest)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	const clkTck = 100 // USER_HZ on Linux
	return time.Duration(utime+stime) * time.Second / clkTck, nil
}

// serverStats is the part of /stats the benchmark reads.
type serverStats struct {
	Cache struct {
		Hits   uint64 `json:"hits"`
		Misses uint64 `json:"misses"`
		Joined uint64 `json:"joined"`
	} `json:"cache"`
	ShedSweeps      int64 `json:"shed_sweeps"`
	AbandonedSweeps int64 `json:"abandoned_sweeps"`
}

func (s *server) stats() (serverStats, error) {
	var st serverStats
	resp, err := http.Get("http://" + s.addr + "/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("/stats: %s", resp.Status)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// response is one /sweep exchange as the client saw it.
type response struct {
	status   int
	body     []byte
	firstRow time.Duration // from sending the request to the first complete row
	latency  time.Duration // from sending the request to the end of the stream
}

// client is one keep-alive connection with read buffers reused across its
// requests, so the load generator allocates little while it shares the cores
// with the server.
type client struct {
	http *http.Client
	br   *bufio.Reader
	buf  bytes.Buffer
}

func newClient() *client {
	return &client{
		http: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}},
		br:   bufio.NewReaderSize(nil, 64<<10),
	}
}

// sweep posts one request and reads the whole NDJSON stream. The response
// body aliases the client's buffer until its next sweep. With a span log it
// records a request span with a first_row span and one row span per row
// under it.
func (c *client) sweep(addr string, body []byte, tr *spanLog) (response, error) {
	start := time.Now()
	var rowEnds []time.Duration
	resp, err := c.http.Post("http://"+addr+"/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		return response{}, err
	}
	defer resp.Body.Close()
	r := response{status: resp.StatusCode}
	c.buf.Reset()
	c.br.Reset(resp.Body)
	for {
		line, err := c.br.ReadSlice('\n')
		c.buf.Write(line)
		if len(line) > 0 && line[len(line)-1] == '\n' {
			if r.firstRow == 0 {
				r.firstRow = time.Since(start)
			}
			if tr != nil {
				rowEnds = append(rowEnds, time.Since(start))
			}
		}
		if err == bufio.ErrBufferFull {
			continue
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return response{}, err
		}
	}
	r.latency = time.Since(start)
	r.body = c.buf.Bytes()
	if tr != nil {
		tr.request(start, r, rowEnds)
	}
	return r, nil
}

// spanLog collects the client-side spans of a traced serve phase.
type spanLog struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func (l *spanLog) request(start time.Time, r response, rowEnds []time.Duration) {
	base := int64(start.Sub(l.t0))
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.spans)
	parent := len(l.spans)
	l.spans = append(l.spans,
		span{Name: "request", Start: base, End: base + int64(r.latency), Parent: -1, ID: id},
		span{Name: "first_row", Start: base, End: base + int64(r.firstRow), Parent: parent, ID: id})
	prev := r.firstRow
	for _, end := range rowEnds[min(1, len(rowEnds)):] {
		l.spans = append(l.spans, span{Name: "row", Start: base + int64(prev), End: base + int64(end), Parent: parent, ID: id})
		prev = end
	}
}

// buildPool computes the sweeps of n pool seeds on a fresh antserve with the
// given store and shuts it down, which snapshots them. It returns the pool
// responses.
func buildPool(o options, storeDir string, n int) ([][]byte, error) {
	srv, _, err := startServer(o.antserve, storeDir)
	if err != nil {
		return nil, err
	}
	c := newClient()
	defer c.http.CloseIdleConnections()
	pool := make([][]byte, n)
	for i := range pool {
		r, err := c.sweep(srv.addr, serveBody(poolSeed(o.seed, i)), nil)
		if err == nil && r.status != http.StatusOK {
			err = fmt.Errorf("pool sweep: status %d: %s", r.status, r.body)
		}
		if err != nil {
			srv.kill()
			return nil, err
		}
		pool[i] = append([]byte(nil), r.body...)
	}
	return pool, srv.stop()
}

// serveSetup prepares the store both serve workloads boot from, then boots
// antserve from it serveBoots times; the boot times are the set-up samples.
// The last boot stays up.
func serveSetup(o options, storeDir string) (*server, [][]byte, []time.Duration, error) {
	pool, err := buildPool(o, storeDir, servePool)
	if err != nil {
		return nil, nil, nil, err
	}
	var boots []time.Duration
	for {
		srv, boot, err := startServer(o.antserve, storeDir)
		if err != nil {
			return nil, nil, nil, err
		}
		boots = append(boots, boot)
		if len(boots) == serveBoots {
			return srv, pool, boots, nil
		}
		if err := srv.stop(); err != nil {
			return nil, nil, nil, err
		}
	}
}

// sample is a miss-class row kept for the recomputation check.
type sample struct {
	seed  uint64
	index int
	row   []byte
}

// load is the outcome of a closed-loop run against the server.
type load struct {
	latency, firstRow []float64 // ms
	wall              time.Duration
	requests, failed  int
	reasons           map[string]int
	samples           []sample
	rows              [][]byte // rows of the first responses, for the ledger
}

// phase is one closed-loop run against a server.
type phase struct {
	addr        string
	seed        uint64 // the workload seed; pool and fresh seeds derive from it
	stream      uint64 // separates the request sequences of different phases
	class       requestClass
	pool        [][]byte // pool[i] is the stored response to poolSeed(seed, i)
	duration    time.Duration
	minRequests int
	keepRows    int      // responses whose rows are kept for the ledger
	trace       *spanLog // nil runs the phase untraced
}

// closedLoop runs one client that sends its next request only after reading
// the previous response to the end, until the phase's duration has passed
// and at least minRequests requests were sent. It is one connection, not
// nproc: with two clients on two cores, the clients, the handlers and the
// cell workers competed for the cores, and serve-hit's p95 moved by 44% of
// its median between runs of the same code. Hit-class requests
// pick pool seeds; miss-class requests use fresh seeds. Each response is
// checked as it arrives, outside its timed span.
func closedLoop(p phase) *load {
	const clients = 1
	expectHit := make([][]byte, len(p.pool))
	for i, body := range p.pool {
		expectHit[i] = bytes.ReplaceAll(body, []byte(`"cached":false`), []byte(`"cached":true`))
	}
	var (
		mu   sync.Mutex
		wg   sync.WaitGroup
		next int
		out  = &load{reasons: map[string]int{}}
	)
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient()
			defer c.http.CloseIdleConnections()
			for {
				mu.Lock()
				n := next
				next++
				mu.Unlock()
				if time.Since(start) >= p.duration && n >= p.minRequests {
					return
				}
				var reqSeed uint64
				var want []byte
				if p.class == hitClass {
					i := int(xrand.DeriveSeed(p.seed, 0x5e, 3, p.stream, uint64(n)) % uint64(len(p.pool)))
					reqSeed, want = poolSeed(p.seed, i), expectHit[i]
				} else {
					reqSeed = freshSeed(p.seed, p.stream, n)
				}
				r, err := c.sweep(p.addr, serveBody(reqSeed), p.trace)
				reason := checkResponse(r, err, p.class, want)
				mu.Lock()
				out.requests++
				if reason != "" {
					out.failed++
					out.reasons[reason]++
				} else {
					out.latency = append(out.latency, float64(r.latency)/float64(time.Millisecond))
					out.firstRow = append(out.firstRow, float64(r.firstRow)/float64(time.Millisecond))
					if p.class == missClass {
						idx := n % serveCells
						out.samples = append(out.samples, sample{seed: reqSeed, index: idx, row: nthLine(r.body, idx)})
					}
					if len(out.rows) < p.keepRows*serveCells {
						for _, l := range splitLines(r.body) {
							out.rows = append(out.rows, append([]byte(nil), l...))
						}
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	out.wall = time.Since(start)
	return out
}

// checkResponse returns why a /sweep response fails the serve gates, or ""
// when it passes: status 200, exactly 72 rows, no error row, and every row
// cached (hit class, where the body must also equal the pool response with
// every row marked cached) or every row computed (miss class).
func checkResponse(r response, err error, class requestClass, want []byte) string {
	switch {
	case err != nil:
		return "serve: request error: " + err.Error()
	case r.status != http.StatusOK:
		return "serve: status " + strconv.Itoa(r.status)
	case bytes.Count(r.body, []byte("\n")) != serveCells:
		return "serve: row count is not 72"
	case bytes.Contains(r.body, []byte(`"error":`)):
		return "serve: error row"
	case class == hitClass && bytes.Contains(r.body, []byte(`"cached":false`)):
		return "serve: hit-class request with a computed row"
	case class == hitClass && !bytes.Equal(r.body, want):
		return "serve: hit-class response differs from the stored sweep"
	case class == missClass && bytes.Contains(r.body, []byte(`"cached":true`)):
		return "serve: miss-class request with a cached row"
	}
	return ""
}

func splitLines(b []byte) [][]byte {
	var out [][]byte
	for _, l := range bytes.SplitAfter(b, []byte("\n")) {
		if len(l) > 0 {
			out = append(out, l)
		}
	}
	return out
}

func nthLine(b []byte, n int) []byte {
	for ; n > 0; n-- {
		i := bytes.IndexByte(b, '\n')
		if i < 0 {
			return nil
		}
		b = b[i+1:]
	}
	if i := bytes.IndexByte(b, '\n'); i >= 0 {
		b = b[:i+1]
	}
	return append([]byte(nil), b...)
}

// statsOf extracts the raw "stats" object of a row.
func statsOf(row []byte) (json.RawMessage, error) {
	var r struct {
		Stats json.RawMessage `json:"stats"`
	}
	if err := json.Unmarshal(row, &r); err != nil {
		return nil, err
	}
	return r.Stats, nil
}

// verifySamples recomputes sampled miss rows in process: each row's stats
// must be byte-equal to RunOne of the same cell with one worker.
func verifySamples(samples []sample, t *tally) {
	ctx := context.Background()
	for _, s := range samples {
		cells, err := serveGrid(s.seed).Cells()
		if err != nil || s.index >= len(cells) {
			t.check(false, "serve: expanding the grid of a sampled row")
			continue
		}
		got, err := statsOf(s.row)
		if err != nil {
			t.check(false, "serve: sampled row does not decode")
			continue
		}
		want, err := runOneJSON(ctx, cells[s.index], 1)
		t.check(err == nil && bytes.Equal(got, want), "serve: computed row differs from in-process RunOne")
	}
}

// verifyPool checks the pool responses from set-up against in-process RunOne
// of every cell, with one worker and with nproc workers, and returns their
// digest. This is the serve workload's output digest: the pool is a pure
// function of the seed.
func verifyPool(seed uint64, pool [][]byte, t *tally) string {
	ctx := context.Background()
	h := sha256.New()
	for i, body := range pool {
		h.Write(body)
		cells, err := serveGrid(poolSeed(seed, i)).Cells()
		lines := splitLines(body)
		if err != nil || len(lines) != len(cells) {
			t.check(false, "serve: pool response does not match its grid")
			continue
		}
		// Every cell is checked for the first pool seed; one in eight for
		// the others, to keep the check's cost small.
		for c, cell := range cells {
			if i > 0 && c%8 != i%8 {
				continue
			}
			got, err := statsOf(lines[c])
			if err != nil {
				t.check(false, "serve: pool row does not decode")
				continue
			}
			one, err1 := runOneJSON(ctx, cell, 1)
			many, err2 := runOneJSON(ctx, cell, runtime.NumCPU())
			t.check(errors.Join(err1, err2) == nil && bytes.Equal(got, one) && bytes.Equal(one, many),
				"serve: pool row differs from in-process RunOne (workers=1 or nproc)")
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func runServe(o options, t *tally, class requestClass) (map[string]metric, error) {
	dir, err := os.MkdirTemp(o.tmp, "serve-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	srv, pool, boots, err := serveSetup(o, filepath.Join(dir, "store"))
	if err != nil {
		return nil, err
	}
	minRequests := minTailSamples
	if class == missClass {
		minRequests = missRequests
	}
	ld := closedLoop(phase{
		addr: srv.addr, seed: o.seed, class: class, pool: pool,
		duration: time.Duration(o.seconds * float64(time.Second)), minRequests: minRequests,
	})
	rss, rssErr := peakRSSMB(srv.pid())
	st, statsErr := srv.stats()
	stopErr := srv.stop()
	if err := errors.Join(rssErr, statsErr); err != nil {
		return nil, err
	}
	t.check(stopErr == nil, fmt.Sprintf("serve: shutdown: %v", stopErr))

	for reason, n := range ld.reasons {
		t.op(n, n, reason)
	}
	t.op(ld.requests-ld.failed, 0, "")
	served := uint64(ld.requests-ld.failed) * serveCells
	wantHits, wantMisses := served, uint64(0)
	if class == missClass {
		wantHits, wantMisses = 0, served
	}
	t.check(st.Cache.Hits == wantHits && st.Cache.Misses == wantMisses && st.Cache.Joined == 0,
		fmt.Sprintf("serve: hit/miss counters %d/%d/%d, planned %d/%d/0",
			st.Cache.Hits, st.Cache.Misses, st.Cache.Joined, wantHits, wantMisses))
	t.check(st.ShedSweeps == 0 && st.AbandonedSweeps == 0, "serve: shed or abandoned sweeps")
	verifySamples(ld.samples, t)
	fmt.Printf("digest serve %s\n", verifyPool(o.seed, pool, t))
	fmt.Fprintf(os.Stderr, "perfbench: %d requests in %v\n", ld.requests, ld.wall)
	return endToEnd(boots, ld.requests-ld.failed, ld.wall, ld.latency, rss), nil
}
