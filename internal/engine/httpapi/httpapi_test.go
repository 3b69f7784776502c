package httpapi

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"uwm/internal/engine"
)

func newServer(t *testing.T, cfg engine.Config) (*engine.Engine, *httptest.Server) {
	t.Helper()
	e, err := engine.New(cfg)
	if err != nil {
		t.Fatalf("engine.New: %v", err)
	}
	srv := httptest.NewServer(New(e))
	t.Cleanup(func() {
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		e.Close(ctx)
	})
	return e, srv
}

func decode(t *testing.T, resp *http.Response, dst any) {
	t.Helper()
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(dst); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
}

func TestSyncSubmitRunsJob(t *testing.T) {
	_, srv := newServer(t, engine.Config{Workers: 1})
	resp, err := http.Post(srv.URL+"/v1/jobs?wait=1", "application/json",
		strings.NewReader(`{"type":"gate","params":{"gate":"TSX_XOR","random":4}}`))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	var snap engine.Snapshot
	decode(t, resp, &snap)
	if snap.Status != engine.StatusDone {
		t.Fatalf("job status %s, err %q", snap.Status, snap.Error)
	}
	if snap.Result == nil || len(snap.Result.Value) == 0 {
		t.Fatal("sync response has no result")
	}
}

func TestAsyncSubmitAndPoll(t *testing.T) {
	_, srv := newServer(t, engine.Config{Workers: 1})
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"type":"covert","params":{"message":"poll me"}}`))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d, want 202", resp.StatusCode)
	}
	var snap engine.Snapshot
	decode(t, resp, &snap)
	if snap.ID == "" {
		t.Fatal("202 response carries no job id")
	}

	deadline := time.Now().Add(60 * time.Second)
	for !snap.Status.Terminal() {
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", snap.ID, snap.Status)
		}
		time.Sleep(20 * time.Millisecond)
		resp, err := http.Get(srv.URL + "/v1/jobs/" + snap.ID)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("poll status %d", resp.StatusCode)
		}
		decode(t, resp, &snap)
	}
	if snap.Status != engine.StatusDone {
		t.Fatalf("job status %s, err %q", snap.Status, snap.Error)
	}
}

func TestQueueFullMapsTo429(t *testing.T) {
	// One worker held by a job that blocks until the test ends, queue
	// of one: the third submission must bounce with 429 and a
	// Retry-After hint.
	release := make(chan struct{})
	engine.Register("test-hold-worker", func(ctx context.Context, _ *engine.Env, _ json.RawMessage) (any, error) {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return "released", nil
	})
	_, srv := newServer(t, engine.Config{Workers: 1, QueueDepth: 1})
	// Cleanups run last-in first-out: the held jobs finish before the
	// server's cleanup drains the engine.
	t.Cleanup(func() { close(release) })
	slow := `{"type":"test-hold-worker"}`
	if resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(slow)); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}

	var last int
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(slow))
		if err != nil {
			t.Fatal(err)
		}
		last = resp.StatusCode
		if last == http.StatusTooManyRequests {
			if resp.Header.Get("Retry-After") == "" {
				t.Error("429 without Retry-After")
			}
			resp.Body.Close()
			return
		}
		resp.Body.Close()
		if time.Now().After(deadline) {
			t.Fatalf("never saw 429, last status %d", last)
		}
	}
}

func TestBadRequests(t *testing.T) {
	_, srv := newServer(t, engine.Config{Workers: 1})
	for _, tc := range []struct {
		name, body string
		want       int
	}{
		{"unknown type", `{"type":"nope"}`, http.StatusBadRequest},
		{"invalid JSON", `{"type":`, http.StatusBadRequest},
		{"bad params", `{"type":"gate","params":{"gadget":"AND"}}`, http.StatusBadRequest},
	} {
		resp, err := http.Post(srv.URL+"/v1/jobs?wait=1", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var status int
		if tc.name == "bad params" {
			// Unknown params fields surface when the handler runs.
			var snap engine.Snapshot
			decode(t, resp, &snap)
			if resp.StatusCode == http.StatusOK && snap.Status == engine.StatusFailed {
				continue
			}
			status = resp.StatusCode
		} else {
			resp.Body.Close()
			status = resp.StatusCode
		}
		if status != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, status, tc.want)
		}
	}
}

func TestListTypesAndJobs(t *testing.T) {
	_, srv := newServer(t, engine.Config{Workers: 1})
	resp, err := http.Get(srv.URL + "/v1/types")
	if err != nil {
		t.Fatal(err)
	}
	var types []string
	decode(t, resp, &types)
	if len(types) < 4 {
		t.Errorf("types = %v, want at least the 4 built-ins", types)
	}

	if resp, err := http.Post(srv.URL+"/v1/jobs?wait=1", "application/json",
		strings.NewReader(`{"type":"gate","params":{"gate":"AND","random":2}}`)); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}
	resp, err = http.Get(srv.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var jobs []engine.Snapshot
	decode(t, resp, &jobs)
	if len(jobs) != 1 {
		t.Errorf("listed %d jobs, want 1", len(jobs))
	}

	resp, err = http.Get(srv.URL + "/v1/jobs/job-does-not-exist")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("missing job: status %d, want 404", resp.StatusCode)
	}
}

func TestQuorumUnhealthy(t *testing.T) {
	for _, tc := range []struct {
		workers, healthy int
		want             bool
	}{
		{1, 1, false}, {1, 0, true},
		{2, 2, false}, {2, 1, false}, {2, 0, true},
		{4, 2, false}, {4, 1, true},
		{0, 0, false},
	} {
		st := engine.Stats{Workers: tc.workers, HealthyWorkers: tc.healthy}
		if got := quorumUnhealthy(st); got != tc.want {
			t.Errorf("quorumUnhealthy(%d workers, %d healthy) = %v, want %v",
				tc.workers, tc.healthy, got, tc.want)
		}
	}
}

func TestHealthDetail(t *testing.T) {
	_, srv := newServer(t, engine.Config{Workers: 2})
	if resp, err := http.Post(srv.URL+"/v1/jobs?wait=1", "application/json",
		strings.NewReader(`{"type":"gate","params":{"gate":"TSX_AND","random":4}}`)); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}

	resp, err := http.Get(srv.URL + "/v1/health/detail")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("health detail status %d", resp.StatusCode)
	}
	var workers []engine.WorkerHealth
	decode(t, resp, &workers)
	if len(workers) != 2 {
		t.Fatalf("health detail lists %d workers, want 2", len(workers))
	}
	for i, w := range workers {
		if w.Worker != i {
			t.Errorf("worker %d has id %d", i, w.Worker)
		}
		if w.Snapshot.Threshold == 0 || w.Snapshot.Calibrations != 1 {
			t.Errorf("worker %d snapshot missing calibration: %+v", i, w.Snapshot)
		}
	}
	// The worker that ran the job reports its timed reads.
	total := int64(0)
	for _, w := range workers {
		total += w.Snapshot.Reads
	}
	if total == 0 {
		t.Error("no worker reports timed reads after a gate job")
	}
}

func TestRequestIDPropagation(t *testing.T) {
	_, srv := newServer(t, engine.Config{Workers: 1})

	// Caller-supplied id: echoed on the response and stored on the job.
	req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/jobs?wait=1",
		strings.NewReader(`{"type":"gate","params":{"gate":"TSX_ASSIGN","inputs":[[1]]}}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-Id", "caller-id-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.Header.Get("X-Request-Id"); got != "caller-id-42" {
		t.Errorf("echoed request id = %q, want caller-id-42", got)
	}
	var snap engine.Snapshot
	decode(t, resp, &snap)
	if snap.RequestID != "caller-id-42" {
		t.Errorf("job snapshot request id = %q", snap.RequestID)
	}

	// No id supplied: one is generated, echoed, and attached to the job.
	resp, err = http.Post(srv.URL+"/v1/jobs?wait=1", "application/json",
		strings.NewReader(`{"type":"gate","params":{"gate":"TSX_ASSIGN","inputs":[[0]]}}`))
	if err != nil {
		t.Fatal(err)
	}
	gen := resp.Header.Get("X-Request-Id")
	if gen == "" {
		t.Fatal("no generated request id on response")
	}
	decode(t, resp, &snap)
	if snap.RequestID != gen {
		t.Errorf("job snapshot id %q != response header %q", snap.RequestID, gen)
	}

	// Non-submission endpoints echo too.
	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.Header.Get("X-Request-Id") == "" {
		t.Error("healthz response missing request id")
	}
}

func TestHealthz(t *testing.T) {
	e, srv := newServer(t, engine.Config{Workers: 2})
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	var st healthzBody
	decode(t, resp, &st)
	if st.Workers != 2 || st.Draining || st.Status != "ok" {
		t.Errorf("healthz stats %+v", st)
	}
	if st.HealthyWorkers != 2 {
		t.Errorf("healthy workers = %d, want 2", st.HealthyWorkers)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := e.Close(ctx); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz while draining: status %d, want 503", resp.StatusCode)
	}
}
