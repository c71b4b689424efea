package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime/debug"
	"sync"
	"time"

	"zivsim/internal/server"
)

// The serve-jobs sweeps: fig1 (a runner-backed figure, so its status
// counts its simulations) over one heterogeneous 4-core mix at 1/64
// scale. Small sweeps give the 100+ completions per run that the
// submit->done percentiles need.
const (
	serveCores   = 4
	serveScale   = 64
	serveWarmup  = 500
	serveMeasure = 1500
	// fig1Sims is fig1's matrix size for one mix: I/NI x LRU/Hawkeye at
	// three L2 sizes.
	fig1Sims = 12
	// primed is how many finished identities the viewer replays.
	primed = 6
	// serveSetupRepeats is how many times set-up runs; setup_s is their
	// median.
	serveSetupRepeats = 5
)

// sweepRefs is the number of references one cold sweep simulates.
const sweepRefs = fig1Sims * serveCores * (serveWarmup + serveMeasure)

// The wire forms of docs/api.md that the clients read.
type (
	submitBody struct {
		Figs    []string       `json:"figs"`
		Options map[string]any `json:"options"`
	}
	jobStatus struct {
		ID          string          `json:"id"`
		State       string          `json:"state"`
		SubmittedUS int64           `json:"submitted_us"`
		StartedUS   int64           `json:"started_us"`
		EndedUS     int64           `json:"ended_us"`
		Deduped     bool            `json:"deduped"`
		Figures     json.RawMessage `json:"figures"`
		Status      *struct {
			Completed int               `json:"completed"`
			Failed    []json.RawMessage `json:"failed"`
			Skipped   []string          `json:"skipped"`
		} `json:"status"`
	}
	event struct {
		Type  string `json:"type"`
		State string `json:"state"`
	}
)

func sweepBody(seed uint64) submitBody {
	return submitBody{Figs: []string{"fig1"}, Options: map[string]any{
		"scale": serveScale, "cores": serveCores, "hetero_mixes": 1, "homo_mixes": 0,
		"warmup": serveWarmup, "measure": serveMeasure, "seed": seed, "parallelism": 1,
	}}
}

// daemon is one in-process zivsimd behind a loopback listener.
type daemon struct {
	hs       *http.Server
	base     string
	stateDir string
	stop     chan struct{}
	ran      chan struct{}
	served   chan struct{}
}

func startDaemon(stateDir string) (*daemon, error) {
	srv, err := server.New(server.Config{Now: time.Now, StateDir: stateDir, Workers: 1, Parallelism: 1})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{
		hs:   &http.Server{Handler: srv.Handler()},
		base: "http://" + ln.Addr().String(), stateDir: stateDir,
		stop: make(chan struct{}), ran: make(chan struct{}), served: make(chan struct{}),
	}
	go func() {
		defer close(d.served)
		if err := d.hs.Serve(ln); err != nil && err != http.ErrServerClosed {
			fmt.Fprintf(os.Stderr, "perfbench: serve: %v\n", err)
		}
	}()
	go func() {
		defer close(d.ran)
		srv.Run(d.stop)
	}()
	return d, nil
}

// close drains the server, stops the listener, waits for both goroutines
// and removes the state directory.
func (d *daemon) close() {
	close(d.stop)
	<-d.ran
	d.hs.Close()
	<-d.served
	os.RemoveAll(d.stateDir)
}

// client speaks the job API as one named client.
type client struct {
	http *http.Client
	base string
	name string
}

// do sends one request and reads the whole response.
func (c *client) do(method, path string, body any) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return 0, nil, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("X-Ziv-Client", c.name)
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// follow reads a job's event feed until the stream ends and returns the
// number of events and the terminal state.
func (c *client) follow(id string) (events int, final string, err error) {
	resp, err := c.http.Get(c.base + "/v1/jobs/" + id + "/events")
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, "", fmt.Errorf("events: HTTP %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return events, final, fmt.Errorf("events: %v", err)
		}
		events++
		switch ev.Type {
		case "done", "failed", "canceled":
			final = ev.State
		}
	}
	return events, final, sc.Err()
}

// sweepResult is what the sweeper learned from one cold sweep.
type sweepResult struct {
	id                string
	submitDone        time.Duration
	queueWait, sweep  time.Duration
	events, completed int
	rejected          bool
	figures           json.RawMessage
}

// coldSweep submits a new identity, follows its feed to the terminal
// event and fetches its final status, returning an error for anything
// but a 202 admission, a done state and a complete, failure-free matrix.
func (c *client) coldSweep(seed uint64, tr *tracer, op string) (sweepResult, error) {
	var r sweepResult
	root := tr.begin(c.name, "cold-sweep", op, 0)
	defer tr.end(root)
	t0 := time.Now()
	s := tr.begin(c.name, "POST /v1/jobs", op, root)
	code, body, err := c.do("POST", "/v1/jobs", sweepBody(seed))
	tr.end(s)
	if err != nil {
		return r, err
	}
	if code != http.StatusAccepted {
		r.rejected = code == http.StatusTooManyRequests
		return r, fmt.Errorf("submit: HTTP %d: %s", code, body)
	}
	var st jobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		return r, err
	}
	r.id = st.ID
	s = tr.begin(c.name, "GET /v1/jobs/{id}/events", op, root)
	r.events, st.State, err = c.follow(st.ID)
	r.submitDone = time.Since(t0)
	tr.end(s)
	if err != nil {
		return r, err
	}
	if st.State != "done" {
		return r, fmt.Errorf("sweep ended %q", st.State)
	}
	s = tr.begin(c.name, "GET /v1/jobs/{id}", op, root)
	code, body, err = c.do("GET", "/v1/jobs/"+r.id, nil)
	tr.end(s)
	if err != nil {
		return r, err
	}
	if code != http.StatusOK {
		return r, fmt.Errorf("status: HTTP %d", code)
	}
	st = jobStatus{}
	if err := json.Unmarshal(body, &st); err != nil {
		return r, err
	}
	r.figures = st.Figures
	r.queueWait = time.Duration(st.StartedUS-st.SubmittedUS) * time.Microsecond
	r.sweep = time.Duration(st.EndedUS-st.StartedUS) * time.Microsecond
	switch {
	case st.State != "done":
		return r, fmt.Errorf("status state %q", st.State)
	case st.Status == nil:
		return r, fmt.Errorf("status missing")
	case st.Status.Completed != fig1Sims || len(st.Status.Failed) > 0 || len(st.Status.Skipped) > 0:
		return r, fmt.Errorf("status: %d/%d completed, %d failed, %d skipped",
			st.Status.Completed, fig1Sims, len(st.Status.Failed), len(st.Status.Skipped))
	}
	r.completed = st.Status.Completed
	return r, nil
}

// replayResult is what the viewer measured in one replay.
type replayResult struct {
	total, submit, get time.Duration
	getBytes           int
	rejected           bool
}

// replay resubmits a finished identity and fetches its full status: the
// submission must be answered 200 deduped and the tables must equal the
// identity's first fetch byte for byte.
func (c *client) replay(seed uint64, id string, want json.RawMessage, tr *tracer, op string) (replayResult, error) {
	var r replayResult
	root := tr.begin(c.name, "replay", op, 0)
	defer tr.end(root)
	t0 := time.Now()
	s := tr.begin(c.name, "POST /v1/jobs", op, root)
	code, body, err := c.do("POST", "/v1/jobs", sweepBody(seed))
	r.submit = time.Since(t0)
	tr.end(s)
	if err != nil {
		return r, err
	}
	var st jobStatus
	if code != http.StatusOK {
		r.rejected = code == http.StatusTooManyRequests
		return r, fmt.Errorf("resubmit: HTTP %d: %s", code, body)
	}
	if err := json.Unmarshal(body, &st); err != nil {
		return r, err
	}
	if !st.Deduped || st.ID != id {
		return r, fmt.Errorf("resubmit not deduped to %s", id)
	}
	t1 := time.Now()
	s = tr.begin(c.name, "GET /v1/jobs/{id}", op, root)
	code, body, err = c.do("GET", "/v1/jobs/"+id, nil)
	r.get = time.Since(t1)
	r.total = time.Since(t0)
	r.getBytes = len(body)
	tr.end(s)
	if err != nil {
		return r, err
	}
	if code != http.StatusOK {
		return r, fmt.Errorf("get: HTTP %d", code)
	}
	st = jobStatus{}
	if err := json.Unmarshal(body, &st); err != nil {
		return r, err
	}
	if !bytes.Equal(st.Figures, want) {
		return r, fmt.Errorf("tables of %s differ from its first fetch", id)
	}
	return r, nil
}

// primedSet is the finished identities the viewer replays.
type primedSet struct {
	seeds   []uint64
	ids     []string
	figures []json.RawMessage
}

// setupServe starts a daemon and primes the replay set with cold sweeps.
func setupServe(dir string, seeds []uint64, hc *http.Client) (*daemon, primedSet, error) {
	var p primedSet
	d, err := startDaemon(dir)
	if err != nil {
		return nil, p, err
	}
	c := &client{http: hc, base: d.base, name: "setup"}
	for _, seed := range seeds {
		r, err := c.coldSweep(seed, nil, "")
		if err != nil {
			d.close()
			return nil, p, fmt.Errorf("priming: %v", err)
		}
		p.seeds = append(p.seeds, seed)
		p.ids = append(p.ids, r.id)
		p.figures = append(p.figures, r.figures)
	}
	return d, p, nil
}

// serveSeeds hands out distinct sweep seeds. Every identity the process
// submits is new, so no sweep is answered from the harness's in-process
// memo of an earlier identical sweep.
type serveSeeds struct{ next uint64 }

func (s *serveSeeds) take() uint64 { s.next++; return s.next }

// runServeJobs measures zivsimd. Set-up (serveSetupRepeats times, keeping the last)
// starts the server on a fresh state directory and primes the replay set.
// The measured phase runs two closed-loop clients at once: the sweeper
// submits cold sweeps with new seeds and follows each feed to done; the
// viewer replays primed identities (deduped POST + full GET).
func runServeJobs(cfg runConfig, tr *tracer) (outcome, error) {
	out := outcome{e2e: map[string]float64{}, layers: map[string]float64{}}
	seeds := &serveSeeds{next: cfg.seed*1_000_000 + cfg.phase*500_000}
	transport := &http.Transport{MaxIdleConnsPerHost: 4}
	defer transport.CloseIdleConnections()
	hc := &http.Client{Transport: transport}

	var d *daemon
	var p primedSet
	var setups []float64
	for i := 0; i < serveSetupRepeats; i++ {
		if d != nil {
			d.close()
		}
		ps := make([]uint64, primed)
		for k := range ps {
			ps[k] = seeds.take()
		}
		dir := filepath.Join(cfg.outDir, fmt.Sprintf("serve-state-%d-%d", os.Getpid(), seeds.next))
		t0 := time.Now()
		var err error
		d, p, err = setupServe(dir, ps, hc)
		if err != nil {
			return out, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer d.close()

	var rss0 float64
	if tr != nil {
		debug.FreeOSMemory()
		var err error
		if rss0, err = rssKB(); err != nil {
			return out, err
		}
	}
	sweeper := &client{http: hc, base: d.base, name: "sweeper"}
	viewer := &client{http: hc, base: d.base, name: "viewer"}
	var (
		mu                                  sync.Mutex
		sweeps                              []sweepResult
		replays                             []replayResult
		sweepFailed, replayFailed, rejected int
		sweepAttempted, replayAttempted     int
		sweeperElapsed, viewerElapsed       float64
	)
	alloc0 := totalAlloc()
	start := time.Now()
	deadline := start.Add(time.Duration(cfg.seconds * float64(time.Second)))
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; time.Now().Before(deadline); i++ {
			r, err := sweeper.coldSweep(seeds.take(), tr, fmt.Sprintf("sweep#%d", i))
			mu.Lock()
			sweepAttempted++
			if err != nil {
				sweepFailed++
				if r.rejected {
					rejected++
				}
				fmt.Fprintf(os.Stderr, "perfbench: serve-jobs: FAILED cold sweep %d: %v\n", i, err)
			} else {
				sweeps = append(sweeps, r)
			}
			mu.Unlock()
		}
		sweeperElapsed = time.Since(start).Seconds()
	}()
	go func() {
		defer wg.Done()
		for i := 0; time.Now().Before(deadline); i++ {
			k := i % len(p.ids)
			r, err := viewer.replay(p.seeds[k], p.ids[k], p.figures[k], tr, fmt.Sprintf("replay#%d", i))
			mu.Lock()
			replayAttempted++
			if err != nil {
				replayFailed++
				if r.rejected {
					rejected++
				}
				fmt.Fprintf(os.Stderr, "perfbench: serve-jobs: FAILED replay %d: %v\n", i, err)
			} else {
				replays = append(replays, r)
			}
			mu.Unlock()
		}
		viewerElapsed = time.Since(start).Seconds()
	}()
	wg.Wait()
	allocated := totalAlloc() - alloc0
	out.attempted = sweepAttempted + replayAttempted
	out.failed = sweepFailed + replayFailed
	if len(sweeps) == 0 || len(replays) == 0 {
		return out, fmt.Errorf("no successful sweeps (%d) or replays (%d)", len(sweeps), len(replays))
	}

	var submitDone, sweepSec, queueMS, sweepMS, submitMS, events, completed []float64
	for _, r := range sweeps {
		submitDone = append(submitDone, ms(r.submitDone))
		sweepSec = append(sweepSec, r.sweep.Seconds())
		queueMS = append(queueMS, ms(r.queueWait))
		sweepMS = append(sweepMS, ms(r.sweep))
		events = append(events, float64(r.events))
		completed = append(completed, float64(r.completed))
	}
	var replayMS, getMS, getKB []float64
	for _, r := range replays {
		replayMS = append(replayMS, ms(r.total))
		submitMS = append(submitMS, ms(r.submit))
		getMS = append(getMS, ms(r.get))
		getKB = append(getKB, float64(r.getBytes)/1024)
	}
	rss, err := peakRSSMB()
	if err != nil {
		return out, err
	}
	e := out.e2e
	e["sim_refs_per_s"] = sweepRefs / median(sweepSec)
	e["alloc_mb"] = float64(allocated) / float64(len(sweeps)) / (1 << 20)
	e["peak_rss_mb"] = rss
	e["setup_s"] = median(setups)
	e["submit_done_p50_ms"] = median(submitDone)
	e["submit_done_p90_ms"] = tail("submit_done_p90_ms", submitDone, 0.90)
	e["jobs_per_s"] = float64(len(sweeps)) / sweeperElapsed
	e["replay_p50_ms"] = median(replayMS)
	e["replay_p99_ms"] = tail("replay_p99_ms", replayMS, 0.99)
	e["replay_req_per_s"] = float64(len(replays)) / viewerElapsed
	fmt.Fprintf(os.Stderr, "perfbench: serve-jobs: %d cold sweeps in %.1fs, %d replays in %.1fs\n",
		len(sweeps), sweeperElapsed, len(replays), viewerElapsed)
	if tr == nil {
		printServeFingerprint(cfg.seed, p)
		return out, nil
	}
	debug.FreeOSMemory()
	rss1, err := rssKB()
	if err != nil {
		return out, err
	}
	l := out.layers
	l["server.queue_wait_ms"] = median(queueMS)
	l["harness.sweep_ms"] = median(sweepMS)
	l["harness.sims_per_sweep"] = median(completed)
	l["server.submit_ms"] = median(submitMS)
	l["server.get_ms"] = median(getMS)
	l["server.get_kb"] = median(getKB)
	l["server.events_per_sweep"] = median(events)
	l["server.rejected"] = float64(rejected)
	l["harness.rss_kb_per_identity"] = (rss1 - rss0) / float64(len(sweeps))
	return out, nil
}

// printServeFingerprint prints a digest over the primed identities' tables,
// which depend only on the seed.
func printServeFingerprint(seed uint64, p primedSet) {
	h := sha256.New()
	for i := range p.ids {
		fmt.Fprintf(h, "%s %s\n", p.ids[i], p.figures[i])
	}
	fmt.Printf("fingerprint serve-jobs seed=%d identities=%d digest=%s\n", seed, len(p.ids), hex.EncodeToString(h.Sum(nil)))
	fmt.Println("  (digest over the primed identities' fig1 tables; the model is not validated against hardware, so no error figure is given)")
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
