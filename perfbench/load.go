package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// clients is the closed loop's client count: two, to match the
// server's two default workers on a two-CPU host.
const clients = 2

// requestTimeout bounds one sync submission; a weird SHA-1 job at the
// default flags takes tens of seconds.
const requestTimeout = 150 * time.Second

// result is one request's fate, as the client saw it.
type result struct {
	req       *request
	client    int
	requestID string
	start     time.Time
	end       time.Time
	xcache    string // the gateway's X-Cache header: miss, hit, collapsed or empty
	err       error  // why the request counts as failed, nil on success

	out        outcome
	canon      []byte            // the canonical (compacted) voted result
	resultHash [sha256.Size]byte // of canon
	attempts   int
	ballots    int
	// Engine timestamps from the job snapshot. For a cache hit or a
	// collapsed duplicate they belong to the job that ran.
	submitted, started, finished time.Time
}

func (r *result) latency() time.Duration { return r.end.Sub(r.start) }

// reused reports whether the gateway answered without running a job.
func (r *result) reused() bool { return r.xcache == "hit" || r.xcache == "collapsed" }

// loadRun is one closed-loop measurement.
type loadRun struct {
	results []*result // in request-index order
	start   time.Time
	dur     time.Duration // how long the clients kept sending
}

// envelope is the part of an engine job snapshot the checks read.
type envelope struct {
	Status   string          `json:"status"`
	Error    string          `json:"error"`
	Result   json.RawMessage `json:"result"`
	Submit   time.Time       `json:"submitted_at"`
	Started  *time.Time      `json:"started_at"`
	Finished *time.Time      `json:"finished_at"`
}

type voted struct {
	Value    json.RawMessage `json:"value"`
	Attempts int             `json:"attempts"`
	Ballots  int             `json:"ballots"`
}

func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     clients,
		MaxIdleConnsPerHost: clients,
		DisableCompression:  true,
	}}
}

// runLoad drives the gateway closed-loop: each client sends its next
// request only once the previous one answered, and stops sending once
// dur has passed; requests in flight then finish. tag makes request
// ids unique across the runs of one invocation. mark, when not nil, is
// called with the number of answers so far after each answer, one call
// at a time.
func runLoad(ctx context.Context, gatewayURL string, gen *generator, dur time.Duration, tag string, mark func(answered int)) *loadRun {
	client := newClient()
	defer client.CloseIdleConnections()
	run := &loadRun{start: time.Now(), dur: dur}
	var (
		next atomic.Int64
		mu   sync.Mutex
		wg   sync.WaitGroup
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Since(run.start) < dur && ctx.Err() == nil {
				req := gen.get(int(next.Add(1) - 1))
				res := submit(ctx, client, gatewayURL, gen.w, req, c, tag)
				mu.Lock()
				run.results = append(run.results, res)
				if mark != nil {
					mark(len(run.results))
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	sort.Slice(run.results, func(i, j int) bool { return run.results[i].req.Index < run.results[j].req.Index })
	return run
}

// submit sends one sync job through the gateway and checks the answer.
func submit(ctx context.Context, client *http.Client, gatewayURL string, w *workload, req *request, c int, tag string) *result {
	res := &result{req: req, client: c, requestID: fmt.Sprintf("pb-%s-%d", tag, req.Index)}
	ctx, cancel := context.WithTimeout(ctx, requestTimeout)
	defer cancel()
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, gatewayURL+"/v1/jobs?wait=1", bytes.NewReader(req.Body))
	if err != nil {
		res.err = err
		return res
	}
	hr.Header.Set("Content-Type", "application/json")
	hr.Header.Set("X-Request-Id", res.requestID)
	res.start = time.Now()
	resp, err := client.Do(hr)
	if err != nil {
		res.end = time.Now()
		res.err = fmt.Errorf("transport: %w", err)
		return res
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	res.end = time.Now()
	if err != nil {
		res.err = fmt.Errorf("reading response: %w", err)
		return res
	}
	res.xcache = resp.Header.Get("X-Cache")
	if resp.StatusCode != http.StatusOK {
		res.err = fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(body))
		return res
	}
	res.err = res.check(w, body)
	return res
}

// check validates the job snapshot and fills in what the metrics need.
func (res *result) check(w *workload, body []byte) error {
	var env envelope
	if err := json.Unmarshal(body, &env); err != nil {
		return fmt.Errorf("decoding job snapshot: %w", err)
	}
	if env.Status != "done" {
		return fmt.Errorf("job %s: %s", env.Status, env.Error)
	}
	if len(env.Result) == 0 || env.Started == nil || env.Finished == nil {
		return errors.New("done job without result or timestamps")
	}
	var v voted
	if err := json.Unmarshal(env.Result, &v); err != nil {
		return fmt.Errorf("decoding voted result: %w", err)
	}
	if v.Attempts < 1 {
		return fmt.Errorf("result reports %d attempts", v.Attempts)
	}
	var canon bytes.Buffer
	if err := json.Compact(&canon, env.Result); err != nil {
		return err
	}
	res.canon = canon.Bytes()
	res.resultHash = sha256.Sum256(res.canon)
	res.attempts, res.ballots = v.Attempts, v.Ballots
	res.submitted, res.started, res.finished = env.Submit, *env.Started, *env.Finished
	out, err := w.check(res.req, v.Value, v.Attempts)
	if err != nil {
		return err
	}
	if res.reused() {
		out.ops = 0 // the gateway answered from its cache; nothing ran
	}
	res.out = out
	return nil
}

// e2e is the end-to-end summary of one or more load runs.
type e2e struct {
	attempted, failed int
	correct, total    int
	failures          []string // the first few failure reasons

	windows      []windowStats
	window       time.Duration
	measuredJobs int // successful requests that ended inside a window
	// raw are the window medians as measured, ref the medians of the
	// windows scaled to the reference host; tailPct is the windows'
	// tail percentile and tailBeyond the samples beyond it in the
	// median window.
	raw, ref   figures
	tailPct    float64
	tailBeyond int
}

// figures are the windowed end-to-end metrics of one window, or their
// medians over windows.
type figures struct {
	jobsPerS, gateOpsPerS, p50, tail float64
}

// scaled returns the figures as they would read on the reference host,
// given how much slower than it the host ran (see probeRefMs).
func (f figures) scaled(slow float64) figures {
	return figures{f.jobsPerS * slow, f.gateOpsPerS * slow, f.p50 / slow, f.tail / slow}
}

// medianFigures returns the median of each figure over the windows.
func medianFigures(windows []figures) figures {
	var jobs, gops, p50, tail sample
	for _, f := range windows {
		jobs = append(jobs, f.jobsPerS)
		gops = append(gops, f.gateOpsPerS)
		p50 = append(p50, f.p50)
		tail = append(tail, f.tail)
	}
	return figures{jobs.median(), gops.median(), p50.median(), tail.median()}
}

// windowStats is one measurement window's share of a run: the
// requests that completed inside it.
type windowStats struct {
	figures
	slow       float64 // the host's slowness around the window's run
	tailBeyond int
}

// windowsOf is how many measurement windows a run of dur holds: the
// run is cut into equal windows of about window each. Reporting the
// median window keeps a host slowdown that covers less than half of
// the windows from moving the metrics, where a whole-run mean or a
// tail over tens of thousands of requests would follow it.
func windowsOf(dur, window time.Duration) int {
	return max(1, int((dur+window/2)/window))
}

// summarize computes the end-to-end metrics of runs made one after
// the other, each cut into windows; slow[i] is how much slower than
// the reference host the host ran around run i. Each request counts in
// the window where its answer arrived; requests still in flight when
// their run's duration is over count only for correctness.
func summarize(runs []*loadRun, slow []float64, w *workload) e2e {
	s := e2e{tailPct: 100 * w.tailQ}
	for i, run := range runs {
		s.attempted += len(run.results)
		nw := windowsOf(run.dur, w.window)
		s.window = run.dur / time.Duration(nw)
		lat := make([]sample, nw)
		ops := make([]float64, nw)
		for _, r := range run.results {
			k := -1
			if d := r.end.Sub(run.start); !r.end.IsZero() && d >= 0 && d < s.window*time.Duration(nw) {
				k = int(d / s.window)
			}
			if r.err != nil {
				s.failed++
				if k >= 0 {
					lat[k] = append(lat[k], math.Inf(1))
				}
				if len(s.failures) < 5 {
					s.failures = append(s.failures, fmt.Sprintf("request %d: %v", r.req.Index, r.err))
				}
				continue
			}
			s.correct += r.out.correct
			s.total += r.out.total
			if k >= 0 {
				lat[k] = append(lat[k], ms(r.latency()))
				ops[k] += r.out.ops
				s.measuredJobs++
			}
		}
		secs := s.window.Seconds()
		for k := range nw {
			ws := windowStats{slow: slow[i]}
			ws.jobsPerS, ws.gateOpsPerS, ws.p50 = float64(len(lat[k]))/secs, ops[k]/secs, lat[k].median()
			ws.tail, ws.tailBeyond = lat[k].quantileBeyond(w.tailQ)
			s.windows = append(s.windows, ws)
		}
	}
	raw := make([]figures, len(s.windows))
	ref := make([]figures, len(s.windows))
	for i, ws := range s.windows {
		raw[i], ref[i] = ws.figures, ws.figures.scaled(ws.slow)
	}
	s.raw, s.ref = medianFigures(raw), medianFigures(ref)
	order := append([]windowStats(nil), s.windows...)
	sort.Slice(order, func(i, j int) bool { return order[i].tail < order[j].tail })
	mid := order[(len(order)-1)/2]
	s.tailBeyond = mid.tailBeyond
	return s
}

func (s e2e) accuracy() float64 { return ratio(float64(s.correct), float64(s.total)) }
