package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/serve"
	"repro/internal/store"
)

// inProcess launches the system under test as serve.Server and
// cluster.Router instances behind httptest servers in the test process.
type inProcess struct{ t *testing.T }

func (l inProcess) launch(ctx context.Context, sp sutSpec) (*sut, error) {
	var closers []func()
	stop := func() {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
	}
	var members []cluster.Member
	for i := 0; i < sp.replicas; i++ {
		var cfg serve.Config
		if sp.durable {
			st, err := store.OpenFile(l.t.TempDir(), store.SyncOff)
			if err != nil {
				stop()
				return nil, err
			}
			closers = append(closers, func() { st.Close() })
			cfg.Store = st
		}
		srv := serve.New(cfg)
		hs := httptest.NewServer(srv.Handler())
		closers = append(closers, func() {
			hs.Close()
			_ = srv.Drain(context.Background())
		})
		members = append(members, cluster.Member{Name: fmt.Sprintf("r%d", i), URL: hs.URL})
	}
	entry := members[0].URL
	if sp.router {
		rt, err := cluster.New(cluster.Config{Members: members})
		if err != nil {
			stop()
			return nil, err
		}
		rt.Start()
		hs := httptest.NewServer(rt.Handler())
		closers = append(closers, func() {
			hs.Close()
			rt.Close()
		})
		entry = hs.URL
	}
	if err := awaitReady(ctx, entry, sp.replicas*btoi(sp.router), nil); err != nil {
		stop()
		return nil, err
	}
	pid := os.Getpid()
	return &sut{url: entry, rssMB: func() float64 { return vmHWM(pid) }, stop: stop}, nil
}

// Every workload runs for about a second against in-process servers and a
// 500-segment board, traced so that both halves run, and must pass its
// checks and emit every metric BENCHMARK.json names, with its unit.
func TestSmokeEveryWorkloadEmitsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("builds figures and emiscale")
	}
	root := repoRoot(t)
	spec, err := readSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./cmd/figures", "./cmd/emiscale")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	c := &config{
		root: root, bin: bin, work: t.TempDir(), traceDir: t.TempDir(),
		seed: 1, seconds: 1, trace: true, setups: 2,
		launch: inProcess{t},
		sizes: sizes{
			explorePop: 4, exploreGens: 1, yieldSamples: 16, batchPairSec: 1,
			figuresArgs: []string{"-fig", "5"}, boardSegments: 500, offlineRepSec: 1,
		},
	}
	for _, w := range workloads {
		t0 := time.Now()
		res, err := w.run(context.Background(), c)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		t.Logf("%s: %d ops in %v, notes %v", w.name, res.Attempted, time.Since(t0).Round(time.Millisecond), res.Notes)
		if err := finalize(res, spec, false); err != nil {
			t.Errorf("%s end to end: %v", w.name, err)
		}
		if err := finalize(res, spec, true); err != nil {
			t.Errorf("%s per layer: %v", w.name, err)
		}
		if !res.Correct {
			t.Errorf("%s failed its checks: %v", w.name, res.Failures)
		}
		for _, b := range spec.EndToEnd {
			if res.Metrics[b.Name].Value == 0 {
				t.Errorf("%s: end-to-end %s is 0", w.name, b.Name)
			}
		}
		if len(res.Traces) != 1 {
			t.Errorf("%s: traces %v", w.name, res.Traces)
			continue
		}
		var doc struct {
			TraceEvents []json.RawMessage `json:"traceEvents"`
		}
		b, err := os.ReadFile(res.Traces[0])
		if err == nil {
			err = json.Unmarshal(b, &doc)
		}
		if err != nil || len(doc.TraceEvents) == 0 {
			t.Errorf("%s: trace %s unreadable or empty: %v", w.name, res.Traces[0], err)
		}
	}
}
