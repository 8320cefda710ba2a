package main

import (
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/serve"
	"repro/internal/session"
)

// Every checker gets a valid input, which must pass, and the same input
// with one value corrupted, which must fail exactly once.

func repoRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// served runs a request through the service's own runner and returns the
// result bytes a job view would carry.
func served(t *testing.T, req jobReq) []byte {
	t.Helper()
	out, err := serve.DefaultRunners()[req.kind](context.Background(), req.body)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// corrupt decodes a result into v, lets f change one value, and encodes
// it again.
func corrupt[T any](t *testing.T, result []byte, f func(*T)) []byte {
	t.Helper()
	var v T
	if err := json.Unmarshal(result, &v); err != nil {
		t.Fatal(err)
	}
	f(&v)
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// doneOp wraps a request and its result as a successfully answered job.
func doneOp(req jobReq, id string, result []byte) jobOp {
	return jobOp{req: req, call: call{status: http.StatusOK},
		view: serve.View{ID: id, State: serve.StateDone, Result: result}}
}

func TestJobCheckersCatchOneCorruption(t *testing.T) {
	gen, err := newJobsGen(repoRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	pred, err := gen.predict(rng)
	if err != nil {
		t.Fatal(err)
	}
	plc, err := gen.place(rng)
	if err != nil {
		t.Fatal(err)
	}
	cpl := gen.couples[len(gen.couples)-1]
	for _, tc := range []struct {
		name  string
		req   jobReq
		check func(body, result []byte) error
		bad   func([]byte) []byte
	}{
		{"predict", pred, checkPredict, func(r []byte) []byte {
			return corrupt(t, r, func(p *serve.PredictResponse) {
				p.LevelsDBuV[3] = math.Nextafter(p.LevelsDBuV[3], math.Inf(1))
			})
		}},
		{"place", plc, checkPlace, func(r []byte) []byte {
			return corrupt(t, r, func(p *serve.PlaceResponse) { p.Green = !p.Green })
		}},
		{"couple", cpl, checkCouple, func(r []byte) []byte {
			return corrupt(t, r, func(p *serve.CoupleResponse) { p.K[2] *= 1 + 1e-12 })
		}},
	} {
		good := served(t, tc.req)
		if err := tc.check(tc.req.body, good); err != nil {
			t.Errorf("%s: valid result rejected: %v", tc.name, err)
		}
		res := newResult("jobs")
		checkJobs(res, []jobOp{doneOp(tc.req, "j1", tc.bad(good))})
		if res.Failed != 1 {
			t.Errorf("%s: corrupted result gave %d failures, want 1: %v", tc.name, res.Failed, res.Failures)
		}
	}

	// A resend must get the same result as the first request.
	good := served(t, plc)
	res := newResult("jobs")
	checkJobs(res, []jobOp{doneOp(plc, "j1", good), doneOp(plc, "j1", good)})
	if res.Failed != 0 {
		t.Errorf("identical resend rejected: %v", res.Failures)
	}
	other := corrupt(t, good, func(p *serve.PlaceResponse) { p.Checks++ })
	checkJobs(res, []jobOp{doneOp(plc, "j1", good), doneOp(plc, "j2", other)})
	if res.Failed != 1 {
		t.Errorf("diverging resend gave %d failures, want 1: %v", res.Failed, res.Failures)
	}
}

func TestEditsMirrorCatchesOneCorruption(t *testing.T) {
	ctx := context.Background()
	mirror, err := newEditsMirror(ctx)
	if err != nil {
		t.Fatal(err)
	}
	server, err := newEditsMirror(ctx) // stands in for the service's session
	if err != nil {
		t.Fatal(err)
	}
	// answer is what the service returns for op.
	answer := func(op *editOp) []byte {
		var v any
		var err error
		switch op.kind {
		case "snapshot":
			b, err := server.s.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			return b
		case "state":
			st := server.s.State()
			v = serve.SessionStateView{State: st, Violations: make([]session.Violation, st.Violations)}
		case "undo":
			v, err = server.s.Undo()
		case "redo":
			v, err = server.s.Redo()
		default:
			v, err = server.s.Apply(op.local)
		}
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	// bad corrupts one answer: a snapshot gains a byte, anything else a
	// later sequence number.
	bad := func(op *editOp, body []byte) []byte {
		if op.kind == "snapshot" {
			return append(body, ' ')
		}
		var m map[string]any
		if err := json.Unmarshal(body, &m); err != nil {
			t.Fatal(err)
		}
		m["seq"] = m["seq"].(float64) + 1
		b, _ := json.Marshal(m)
		return b
	}
	rng := rand.New(rand.NewSource(3))
	plan := &editsPlan{refs: mirror.refs}
	kinds := map[string]bool{}
	failures := 0
	for i := 0; i < 80; i++ {
		op := plan.next(rng, "s1")
		kinds[op.kind] = true
		op.call = call{status: http.StatusOK, body: answer(&op)}
		if i == 50 {
			op.call.body = bad(&op, op.call.body)
		}
		if _, err := mirror.settle(&op); err != nil {
			failures++
			if i != 50 {
				t.Errorf("op %d (%s) rejected: %v", i, op.kind, err)
			}
		}
		if op.mutation() {
			plan.acked(op.kind)
		}
	}
	if failures != 1 {
		t.Errorf("one corrupted answer gave %d failures, want 1", failures)
	}
	if len(kinds) < 6 {
		t.Errorf("80 ops drew only the kinds %v", kinds)
	}
}

func TestCheckStream(t *testing.T) {
	acked := []uint64{1, 2, 3}
	for _, tc := range []struct {
		name string
		seen map[uint64]int
		want int
	}{
		{"all once", map[uint64]int{1: 1, 2: 1, 3: 1}, 0},
		{"one twice", map[uint64]int{1: 1, 2: 2, 3: 1}, 1},
		{"one missing", map[uint64]int{1: 1, 3: 1}, 1},
		{"one never acknowledged", map[uint64]int{1: 1, 2: 1, 3: 1, 4: 1}, 1},
	} {
		res := newResult("edits")
		checkStream(res, acked, tc.seen)
		if res.Failed != tc.want {
			t.Errorf("%s: %d failures, want %d: %v", tc.name, res.Failed, tc.want, res.Failures)
		}
	}
}

func TestSameResultIgnoresOnlyElapsed(t *testing.T) {
	op := func(r serve.ExploreResponse) jobOp {
		b, _ := json.Marshal(r)
		return doneOp(jobReq{kind: serve.KindExplore}, "j", b)
	}
	base := serve.ExploreResponse{Objectives: []string{"area"}, Generations: 3, Evaluations: 64, ElapsedMS: 10,
		Front: []serve.CandidateView{{Genes: []float64{0.5}, Objectives: map[string]float64{"area": 1.25}}}}
	again := base
	again.ElapsedMS = 99
	if err := sameResult(op(base), op(again)); err != nil {
		t.Errorf("a different elapsed time must not count: %v", err)
	}
	bad := again
	bad.Front = []serve.CandidateView{{Genes: []float64{0.5}, Objectives: map[string]float64{"area": 1.2500000001}}}
	if err := sameResult(op(base), op(bad)); err == nil {
		t.Error("a different objective must count")
	}
}

func TestCheckFigures(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join(repoRoot(t), "figures_output.txt"))
	if err != nil {
		t.Fatal(err)
	}
	golden := stableFigures(raw)
	res := newResult("offline")
	timed := strings.Replace(string(raw), "computation time:", "computation time: 9.99 s, was", 1)
	checkFigures(res, []byte(timed), golden)
	if res.Failed != 0 {
		t.Errorf("a different computation time must not count: %v", res.Failures)
	}
	bad := strings.Replace(string(raw), "83.6", "83.7", 1)
	checkFigures(res, []byte(bad), golden)
	if res.Failed != 1 || !strings.Contains(res.Failures[0], "line 3") {
		t.Errorf("one changed level gave %v", res.Failures)
	}

	one, err := figuresGolden(repoRoot(t), []string{"-fig", "5"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(one, "== Figure 5:") || strings.Contains(one, "== Figure 6:") {
		t.Errorf("figure 5 section:\n%s", one)
	}
}

func TestCheckBoards(t *testing.T) {
	board := func(name string, worst, sparse float64) offlineRun {
		return offlineRun{name: name, scale: scaleRecord{Harmonics: 25, WorstDB: worst},
			stats: engineStats{sparse: sparse}}
	}
	runs := []offlineRun{
		{name: "figures"}, board("board_dense", 254, 0), board("board_sparse", 254, 25),
		{name: "figures"}, board("board_dense", 254, 0), board("board_sparse", 254, 25),
	}
	res := newResult("offline")
	checkBoards(res, runs)
	if res.Failed != 0 || len(res.Notes) != 0 {
		t.Errorf("consistent boards: %v %v", res.Failures, res.Notes)
	}
	runs[5].scale.WorstDB = 253.9
	checkBoards(res, runs)
	if res.Failed != 1 {
		t.Errorf("a changed worst margin gave %d failures, want 1", res.Failed)
	}
	res = newResult("offline")
	runs[5].scale.WorstDB = 254
	runs[2].stats.sparse = 0
	checkBoards(res, runs)
	if res.Failed != 0 || len(res.Notes) != 1 {
		t.Errorf("a sparse board solved dense must be noted once: %v %v", res.Failures, res.Notes)
	}
}

func TestParseStats(t *testing.T) {
	st, err := parseStats([]byte(`appended record to x.json
engine: mna solves 25
engine: neumann integrals 457916
engine: cache hits 712 misses 255257 hit-rate 0.3%
engine: pool batches 3 tasks 255280
engine: lu assemblies 25 factorizations 26 resolves 27
engine: solver sparse (forced) sparse-factorizations 25 sparse-resolves 25
engine: phase core.extract calls 2 wall 1.384693s alloc 58.8MiB
engine: phase emi.harmonics calls 1 wall 13.075ms alloc 4.5MiB
`))
	if err != nil {
		t.Fatal(err)
	}
	if st.neumann != 457916 || st.hits != 712 || st.misses != 255257 || st.factorizations != 26 ||
		st.resolves != 27 || st.sparse != 25 {
		t.Errorf("parsed %+v", st)
	}
	if st.phases["core.extract"] != 1.384693 || st.phases["emi.harmonics"] != 0.013075 {
		t.Errorf("phases %v", st.phases)
	}
	if _, err := parseStats([]byte("no statistics here\n")); err == nil {
		t.Error("output without statistics must be an error")
	}
}
