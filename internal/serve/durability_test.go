package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/store"
)

// TestDrainRequeuesQueuedJobs is the regression test for the drain bug:
// jobs still sitting in the queue when the drain deadline fires used to
// be silently discarded. With a store they must stay durable as queued,
// be requeued on the next start with their original IDs, and run to
// completion — and the restart must surface them in requeued_total.
func TestDrainRequeuesQueuedJobs(t *testing.T) {
	st := store.NewMemory()
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	s1 := New(Config{
		Workers:    1,
		JobTimeout: time.Hour,
		Store:      st,
		Runners: map[Kind]Runner{
			"work": func(ctx context.Context, req []byte) (any, error) {
				select {
				case started <- struct{}{}:
				default:
				}
				select {
				case <-release:
					return map[string]string{"echo": string(req)}, nil
				case <-ctx.Done():
					return nil, ctx.Err()
				}
			},
		},
	})

	running, err := s1.Submit("work", []byte(`{"n":1}`))
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("first job never started")
	}
	queued, err := s1.Submit("work", []byte(`{"n":2}`))
	if err != nil {
		t.Fatal(err)
	}
	if queued.State() != StateQueued {
		t.Fatalf("second job state %s, want queued on the single busy worker", queued.State())
	}

	// Drain with an already-expired deadline: both jobs are cut off.
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	_ = s1.Drain(expired)
	if queued.State() != StateCancelled {
		t.Fatalf("queued job state %s after forced drain", queued.State())
	}

	// Restart on the same store. Both jobs must come back as queued —
	// neither reached a terminal state the client could have observed.
	close(release)
	s2 := testServer(t, Config{
		Workers: 1,
		Store:   st,
		Runners: map[Kind]Runner{
			"work": func(ctx context.Context, req []byte) (any, error) {
				return map[string]string{"echo": string(req)}, nil
			},
		},
	})
	rec := s2.RecoveryReport()
	if rec.Requeued != 2 {
		t.Fatalf("recovery requeued %d jobs, want 2 (1 running + 1 queued at drain)", rec.Requeued)
	}
	for _, id := range []string{running.ID, queued.ID} {
		j, err := s2.Job(id)
		if err != nil {
			t.Fatalf("job %s lost across restart: %v", id, err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		err = j.Wait(ctx)
		cancel()
		if err != nil || j.State() != StateDone {
			t.Fatalf("requeued job %s: wait err %v, state %s", id, err, j.State())
		}
		res, errMsg := j.Result()
		if errMsg != "" || !strings.Contains(string(res), "echo") {
			t.Fatalf("requeued job %s result %q err %q", id, res, errMsg)
		}
	}

	var buf bytes.Buffer
	if err := s2.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "emiserve_requeued_total 2") {
		t.Fatalf("metrics missing requeued counter:\n%s", buf.String())
	}
}

// TestDrainRejectsRequestsCleanly is the regression test for the
// drain-vs-forward race: a request that lands AFTER drain has begun but
// BEFORE it finishes (an in-flight job is still pinning the drain) must
// get a clean 503 + Retry-After — never hang, never be half-accepted
// with an ID that won't survive.
func TestDrainRejectsRequestsCleanly(t *testing.T) {
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	s, base := httpFixture(t, Config{
		Workers:    1,
		JobTimeout: time.Hour,
		Runners: map[Kind]Runner{
			KindPredict: func(ctx context.Context, req []byte) (any, error) {
				select {
				case started <- struct{}{}:
				default:
				}
				select {
				case <-release:
					return map[string]int{"ok": 1}, nil
				case <-ctx.Done():
					return nil, ctx.Err()
				}
			},
		},
	})
	if resp, body := postJSON(t, base+"/v1/predict", `{"hold":1}`); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", resp.StatusCode, body)
	}
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("job never started")
	}

	// Begin the drain; it blocks on the in-flight job.
	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drained <- s.Drain(ctx)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for !s.Draining() {
		if time.Now().After(deadline) {
			t.Fatal("server never entered draining state")
		}
		time.Sleep(time.Millisecond)
	}

	// Mid-drain: submissions and session creates shed cleanly.
	for _, c := range []struct{ url, body string }{
		{base + "/v1/predict", `{"late":1}`},
		{base + "/v1/sessions", `{"synthetic":{"n":5,"rules":3,"groups":2,"w_mm":100,"h_mm":80}}`},
	} {
		resp, body := postJSON(t, c.url, c.body)
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("%s mid-drain status %d: %s, want 503", c.url, resp.StatusCode, body)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Fatalf("%s mid-drain response lacks Retry-After", c.url)
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
			t.Fatalf("%s mid-drain body is not a clean JSON error: %s", c.url, body)
		}
	}
	// Liveness stays up so the supervisor doesn't kill a draining
	// process; readiness reports the drain so routers stop sending work.
	if resp, _ := getJSON(t, base+"/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz mid-drain %d, want 200", resp.StatusCode)
	}
	if resp, _ := getJSON(t, base+"/readyz"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz mid-drain %d, want 503", resp.StatusCode)
	}

	close(release)
	if err := <-drained; err != nil {
		t.Fatalf("drain failed: %v", err)
	}
}

// TestDoneResultsSurviveRestart: a completed job's result must be
// restored from the store with its identity and original expiry — and be
// reusable through dedup without re-running the engine.
func TestDoneResultsSurviveRestart(t *testing.T) {
	st := store.NewMemory()
	var runs atomic.Int64
	runner := func(ctx context.Context, req []byte) (any, error) {
		runs.Add(1)
		return map[string]int{"answer": 42}, nil
	}
	s1 := testServer(t, Config{
		Workers: 1, ResultTTL: time.Hour, Store: st,
		Runners: map[Kind]Runner{"work": runner},
	})
	body := []byte(`{"q":"life"}`)
	j, err := s1.Submit("work", body)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := j.Wait(ctx); err != nil {
		t.Fatal(err)
	}

	s2 := testServer(t, Config{
		Workers: 1, ResultTTL: time.Hour, Store: st,
		Runners: map[Kind]Runner{"work": runner},
	})
	if rec := s2.RecoveryReport(); rec.Restored != 1 {
		t.Fatalf("restored %d results, want 1", rec.Restored)
	}
	// The job itself is findable with its result.
	j2, err := s2.Job(j.ID)
	if err != nil {
		t.Fatalf("done job lost across restart: %v", err)
	}
	res, errMsg := j2.Result()
	if errMsg != "" || !strings.Contains(string(res), "42") {
		t.Fatalf("restored result %q err %q", res, errMsg)
	}
	// Resubmitting the same body hits the restored result store: no new
	// engine run.
	j3, err := s2.Submit("work", body)
	if err != nil {
		t.Fatal(err)
	}
	if err := j3.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if n := runs.Load(); n != 1 {
		t.Fatalf("engine ran %d times, want 1 (restart + dedup reuse)", n)
	}
}

// TestFailedJobsAreNotRequeued: a job that reached a terminal failure
// before the kill must stay failed after restart, not run again.
func TestFailedJobsAreNotRequeued(t *testing.T) {
	st := store.NewMemory()
	s1 := testServer(t, Config{
		Workers: 1, ResultTTL: time.Hour, Store: st,
		Runners: map[Kind]Runner{
			"work": func(ctx context.Context, req []byte) (any, error) {
				return nil, fmt.Errorf("boom")
			},
		},
	})
	j, err := s1.Submit("work", []byte(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = j.Wait(ctx)
	if j.State() != StateFailed {
		t.Fatalf("state %s, want failed", j.State())
	}

	s2 := testServer(t, Config{
		Workers: 1, Store: st,
		Runners: map[Kind]Runner{
			"work": func(ctx context.Context, req []byte) (any, error) {
				t.Error("failed job re-ran after restart")
				return nil, nil
			},
		},
	})
	if rec := s2.RecoveryReport(); rec.Requeued != 0 {
		t.Fatalf("requeued %d, want 0", rec.Requeued)
	}
	j2, err := s2.Job(j.ID)
	if err != nil {
		t.Fatalf("failed job lost: %v", err)
	}
	if j2.State() != StateFailed {
		t.Fatalf("restored state %s, want failed", j2.State())
	}
	if _, errMsg := j2.Result(); !strings.Contains(errMsg, "boom") {
		t.Fatalf("restored error %q", errMsg)
	}
}

// TestSessionsSurviveRestartOverHTTP drives the full HTTP surface: create
// a session, edit it, restart the server on the same store, and read the
// identical snapshot and sequence number back — then keep editing.
func TestSessionsSurviveRestartOverHTTP(t *testing.T) {
	st := store.NewMemory()
	s1 := testServer(t, Config{Store: st, Runners: map[Kind]Runner{}})
	ts1 := httptest.NewServer(s1.Handler())
	defer ts1.Close()

	// Create a session from a synthetic spec.
	var created struct {
		ID  string `json:"id"`
		Seq uint64 `json:"seq"`
	}
	postJSONInto(t, ts1.URL+"/v1/sessions", `{"synthetic":{"n":6,"rules":4,"groups":2,"w_mm":120,"h_mm":100}}`, &created)
	if created.ID == "" {
		t.Fatal("no session ID")
	}

	// A couple of edits.
	var afterEdit struct {
		Seq uint64 `json:"seq"`
	}
	postJSONInto(t, ts1.URL+"/v1/sessions/"+created.ID+"/edits",
		`{"op":"param","param":"clearance","value_mm":0.4}`, &afterEdit)
	postJSONInto(t, ts1.URL+"/v1/sessions/"+created.ID+"/edits",
		`{"op":"param","param":"clearance","value_mm":0.7}`, &afterEdit)
	snap1 := getBody(t, ts1.URL+"/v1/sessions/"+created.ID+"/snapshot")
	ts1.Close()

	s2 := testServer(t, Config{Store: st, Runners: map[Kind]Runner{}})
	if rec := s2.RecoveryReport(); rec.Sessions != 1 {
		t.Fatalf("recovered %d sessions, want 1", rec.Sessions)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()

	snap2 := getBody(t, ts2.URL+"/v1/sessions/"+created.ID+"/snapshot")
	if !bytes.Equal(snap1, snap2) {
		t.Fatalf("snapshot changed across restart:\nbefore:\n%s\nafter:\n%s", snap1, snap2)
	}
	// The recovered session keeps working: undo drops the last edit and
	// the next edit journals durably (visible after another restart).
	var undone struct {
		Seq uint64 `json:"seq"`
	}
	postJSONInto(t, ts2.URL+"/v1/sessions/"+created.ID+"/undo", `{}`, &undone)
	if undone.Seq != afterEdit.Seq+1 {
		t.Fatalf("undo seq %d, want %d", undone.Seq, afterEdit.Seq+1)
	}
	snap3 := getBody(t, ts2.URL+"/v1/sessions/"+created.ID+"/snapshot")

	s3 := testServer(t, Config{Store: st, Runners: map[Kind]Runner{}})
	ts3 := httptest.NewServer(s3.Handler())
	defer ts3.Close()
	snap4 := getBody(t, ts3.URL+"/v1/sessions/"+created.ID+"/snapshot")
	if !bytes.Equal(snap3, snap4) {
		t.Fatal("post-restart undo was not journaled durably")
	}

	// Deleting the session must stick across restarts too.
	req, _ := http.NewRequest(http.MethodDelete, ts3.URL+"/v1/sessions/"+created.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete status %d", resp.StatusCode)
	}
	s4 := testServer(t, Config{Store: st, Runners: map[Kind]Runner{}})
	if rec := s4.RecoveryReport(); rec.Sessions != 0 {
		t.Fatalf("deleted session resurrected: %d sessions recovered", rec.Sessions)
	}
}

// postJSONInto posts and decodes a 2xx response into out.
func postJSONInto(t *testing.T, url, body string, out any) {
	t.Helper()
	resp, b := postJSON(t, url, body)
	if resp.StatusCode/100 != 2 {
		t.Fatalf("POST %s: status %d: %s", url, resp.StatusCode, b)
	}
	if out != nil {
		if err := json.Unmarshal(b, out); err != nil {
			t.Fatalf("POST %s: decode %q: %v", url, b, err)
		}
	}
}

func getBody(t *testing.T, url string) []byte {
	t.Helper()
	resp, b := getJSON(t, url)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	return b
}

// gatedStore holds every terminal job record at the door until release
// closes, reporting each held record's job ID on entered.
type gatedStore struct {
	store.Store
	entered chan string
	release chan struct{}
}

func (g *gatedStore) AppendJob(rec store.JobRecord) error {
	if rec.State != store.JobQueued {
		g.entered <- rec.ID
		<-g.release
	}
	return g.Store.AppendJob(rec)
}

// TestTerminalRecordBeforeFinish pins the write-ahead rule for job
// completion: while a job's terminal record is not yet appended, nobody
// may see the job finish — Wait (and with it ?wait=1 and the SSE done
// frame) stays blocked. Otherwise a restart in that window requeues and
// reruns a job a client already saw finish. Both terminal paths are
// covered: a run to completion and the cancellation of a queued job.
func TestTerminalRecordBeforeFinish(t *testing.T) {
	for _, queuedCancel := range []bool{false, true} {
		t.Run(fmt.Sprintf("queuedCancel=%v", queuedCancel), func(t *testing.T) {
			// entered has room for every terminal record the test causes,
			// so the ones after the checked one never block.
			gs := &gatedStore{Store: store.NewMemory(), entered: make(chan string, 4), release: make(chan struct{})}
			hold := make(chan struct{})
			s := testServer(t, Config{
				Workers: 1, Store: gs,
				Runners: map[Kind]Runner{
					"work": func(ctx context.Context, req []byte) (any, error) { return "ok", nil },
					"hold": func(ctx context.Context, req []byte) (any, error) { <-hold; return "ok", nil },
				},
			})
			var once sync.Once
			release := func() { once.Do(func() { close(gs.release) }) }
			t.Cleanup(func() { release(); close(hold) }) // before the drain registered above

			kind := Kind("work")
			if queuedCancel {
				if _, err := s.Submit("hold", []byte(`{}`)); err != nil {
					t.Fatal(err)
				}
				kind = "hold"
			}
			j, err := s.Submit(kind, []byte(`{"n":1}`))
			if err != nil {
				t.Fatal(err)
			}
			if queuedCancel {
				go s.Cancel(j.ID)
			}
			if id := <-gs.entered; id != j.ID {
				t.Fatalf("held terminal record of %s, want %s", id, j.ID)
			}

			ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
			defer cancel()
			if err := j.Wait(ctx); err == nil {
				t.Fatal("Wait returned while the terminal record was still unjournaled")
			}
			release()
			ctx2, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel2()
			if err := j.Wait(ctx2); err != nil {
				t.Fatalf("Wait after the append: %v", err)
			}
			want := StateDone
			if queuedCancel {
				want = StateCancelled
			}
			if st := j.State(); st != want {
				t.Fatalf("state %s, want %s", st, want)
			}
		})
	}
}
