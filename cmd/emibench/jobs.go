package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/buck"
	"repro/internal/components"
	"repro/internal/drc"
	"repro/internal/emi"
	"repro/internal/geom"
	"repro/internal/layout"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/peec"
	"repro/internal/serve"
)

// The jobs workload: two closed-loop clients submit short jobs with
// ?wait=1 through emirouter to two durable emiserve replicas.

const (
	jobsClients  = 2
	jobsResends  = 64  // a resend repeats one of the client's last 64 bodies
	predictFreq  = 2e6 // Hz; keeps each predict small
	predictCheck = 100 // distinct predict bodies recomputed in-process
	coupleCheck  = 100 // distinct couple bodies recomputed in-process
)

// coupleSpecs are the catalog parts the couple jobs pair up.
var coupleSpecs = []string{"x2cap:1.5u", "mlcc:100n", "bobbin:10:3", "bobbin:10:5", "cmchoke3"}

// jobsGen makes the jobs workload's request bodies.
type jobsGen struct {
	circuit *netlist.Circuit // the Figure 14 netlist: buck, unfavourable placement, all couplings
	design  *layout.Design   // testdata/buck_design.txt
	couples []jobReq         // coupleBodies
}

func newJobsGen(root string) (*jobsGen, error) {
	p := buck.Project()
	if err := buck.Unfavorable(p); err != nil {
		return nil, err
	}
	ks, err := p.ExtractCouplings(p.AllPairs())
	if err != nil {
		return nil, err
	}
	text, err := os.ReadFile(filepath.Join(root, "testdata", "buck_design.txt"))
	if err != nil {
		return nil, err
	}
	d, err := layout.ReadString(string(text))
	if err != nil {
		return nil, err
	}
	return &jobsGen{circuit: p.CircuitWithCouplings(ks), design: d, couples: coupleBodies()}, nil
}

// jobReq is one submission: its route and body.
type jobReq struct {
	kind serve.Kind
	body []byte
}

// next draws a fresh request: 40 % predict, 30 % place, 20 % couple. The
// remaining 10 % is a resend, which the caller handles.
func (g *jobsGen) next(rng *rand.Rand) (jobReq, error) {
	switch r := rng.Float64(); {
	case r < 4.0/9:
		return g.predict(rng)
	case r < 7.0/9:
		return g.place(rng)
	}
	return g.couples[rng.Intn(len(g.couples))], nil
}

// predict is the Figure 14 netlist with a seeded load resistor.
func (g *jobsGen) predict(rng *rand.Rand) (jobReq, error) {
	ckt := g.circuit.Clone()
	ckt.Find("Rload").Value = 1 + 3*rng.Float64()
	body, err := json.Marshal(serve.PredictRequest{Netlist: ckt.String(), Sources: []string{"IQ1", "VD1"},
		Measure: "lisn_meas", MaxFreq: predictFreq})
	return jobReq{kind: serve.KindPredict, body: body}, err
}

// place is the buck design on a board outline scaled by a seeded
// 1.0–1.2.
func (g *jobsGen) place(rng *rand.Rand) (jobReq, error) {
	d := g.design.Clone()
	f := 1 + 0.2*rng.Float64()
	for i, v := range d.Areas[0].Poly {
		d.Areas[0].Poly[i] = geom.V2(v.X*f, v.Y*f)
	}
	var buf bytes.Buffer
	if err := layout.Write(&buf, d); err != nil {
		return jobReq{}, err
	}
	body, err := json.Marshal(serve.PlaceRequest{Design: buf.String()})
	return jobReq{kind: serve.KindPlace, body: body}, err
}

// coupleBodies lists every couple request the workload draws from: each
// unordered pair of coupleSpecs, swept from 16 or 20 mm. Computing them
// once before the warm-up keeps cold field integrals (a bobbin pair costs
// a few hundred milliseconds cold) out of the measured window.
func coupleBodies() []jobReq {
	var out []jobReq
	for i := range coupleSpecs {
		for j := i; j < len(coupleSpecs); j++ {
			for _, from := range []float64{16, 20} {
				body, _ := json.Marshal(serve.CoupleRequest{A: coupleSpecs[i], B: coupleSpecs[j],
					FromMM: from, ToMM: from + 20, StepMM: 4}) // strings and numbers always marshal
				out = append(out, jobReq{kind: serve.KindCouple, body: body})
			}
		}
	}
	return out
}

// jobOp is one measured submission.
type jobOp struct {
	req    jobReq
	call   call
	late   time.Duration // client turnaround since its previous op
	view   serve.View
	fresh  bool // the server created the job for this request
	traced bool
}

// runJobs drives the jobs workload.
func runJobs(ctx context.Context, c *config) (*result, error) {
	res := newResult("jobs")
	gen, err := newJobsGen(c.root)
	if err != nil {
		return nil, err
	}
	s, setup, err := setUp(ctx, c, sutSpec{replicas: 2, router: true, durable: true}, nil)
	if err != nil {
		return nil, err
	}
	defer s.stop()
	res.Metrics["setup_s"] = setup

	cl := newClient(s.url, jobsClients+1)
	defer cl.close()
	for _, req := range gen.couples {
		if pw := cl.do(ctx, http.MethodPost, "/v1/couple?wait=1", req.body, false); !pw.ok() {
			return nil, fmt.Errorf("prewarm couple: status %d: %v %s", pw.status, pw.err, pw.body)
		}
	}
	spans := newSpanLog()
	warm := c.seconds / 10
	win := newWindows(time.Now().Add(seconds(warm)), c.seconds, c.trace)
	res.Run = map[string]float64{"warmup_s": warm, "measured_s": c.seconds, "clients": jobsClients}

	slow := &slowJobs{path: "/cluster/trace/"}
	var mu sync.Mutex
	var ops []jobOp
	var loopErr error
	client := func(lane int) error {
		rng := rand.New(rand.NewSource(c.seed*1000 + int64(lane)))
		var ring []jobReq
		prevEnd := time.Now()
		for {
			start := time.Now()
			if !start.Before(win.end) || ctx.Err() != nil {
				return nil
			}
			op := jobOp{late: start.Sub(prevEnd)}
			if len(ring) > 0 && rng.Float64() < 0.1 {
				op.req = ring[rng.Intn(len(ring))]
			} else {
				req, err := gen.next(rng)
				if err != nil {
					return err
				}
				op.req = req
				ring = append(ring, req)
				if len(ring) > jobsResends {
					ring = ring[1:]
				}
			}
			op.traced = win.traced(start)
			op.call = cl.do(ctx, http.MethodPost, "/v1/"+string(op.req.kind)+"?wait=1", op.req.body, op.traced)
			prevEnd = op.call.end
			if win.index(op.call.start) < 0 {
				continue // warm-up
			}
			if op.call.ok() && json.Unmarshal(op.call.body, &op.view) == nil {
				op.fresh = !op.view.Created.Before(op.call.start.Add(-time.Millisecond))
			}
			if op.traced {
				spans.addCall("client "+string(op.req.kind), lane, op.call)
				if err := slow.capture(ctx, cl, op); err != nil {
					return err
				}
			}
			mu.Lock()
			ops = append(ops, op)
			mu.Unlock()
		}
	}
	var wg sync.WaitGroup
	for lane := 1; lane <= jobsClients; lane++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			if err := client(lane); err != nil {
				mu.Lock()
				loopErr = err
				mu.Unlock()
			}
		}(lane)
	}
	scrapes, err := win.scrapeAt(ctx, cl)
	wg.Wait()
	if err != nil {
		return nil, err
	}
	if loopErr != nil {
		return nil, loopErr
	}
	res.Metrics["rss_mb"] = metric{Value: s.rssMB(), Unit: "MiB"}

	// Per window: latencies, throughput and the server-side split.
	byWin := make([][]jobOp, win.count())
	for _, op := range ops {
		i := win.index(op.call.start)
		byWin[i] = append(byWin[i], op)
	}
	primary := make([]float64, win.count())
	for i, wops := range byWin {
		var rtt []float64
		for _, op := range wops {
			res.Attempted++
			if !op.call.ok() || op.view.State != serve.StateDone {
				res.fail("%s %s: status %d state %q: %v %s", op.req.kind, op.view.ID,
					op.call.status, op.view.State, op.call.err, op.view.Error)
				continue
			}
			rtt = append(rtt, op.call.ms())
		}
		primary[i] = median(rtt)
		if i > 0 {
			continue // a traced window only feeds the trace metrics
		}
		res.Metrics["p50_ms"] = p50Metric(rtt, "ms")
		res.Metrics["tail_ms"] = tailMetric(rtt, "ms")
		res.Metrics["ops_per_s"] = metric{Value: float64(len(rtt)) / win.length, Unit: "1/s", Samples: len(rtt)}
		res.Metrics["job_p50_ms"] = p50Metric(rtt, "ms")
		res.named(c, rtt, 99, "job_p99_ms")
		res.Metrics["jobs_per_s"] = res.Metrics["ops_per_s"]
		jobLayers(res, wops, scrapes[0], scrapes[1])
	}
	if win.split {
		res.Layers["trace_overhead_pct"] = overheadPct(primary[0], primary[1])
		if err := slow.write(c, res, spans); err != nil {
			return nil, err
		}
	}
	checkJobs(res, ops)
	res.Metrics["fail_frac"] = metric{Value: res.failFrac(), Unit: "1"}
	return res, nil
}

// jobLayers derives the per-layer metrics of one untraced window from the
// job views and the /metrics deltas around it.
func jobLayers(res *result, ops []jobOp, before, after prom) {
	var unattr, queue, run, late []float64
	var rttSum, queueSum float64
	phases := map[string]float64{}
	fresh := 0
	for _, op := range ops {
		late = append(late, float64(op.late)/float64(time.Millisecond))
		v := op.view
		if !op.fresh || v.Started == nil || v.Finished == nil {
			continue
		}
		fresh++
		q, r := msBetween(v.Created, *v.Started), msBetween(*v.Started, *v.Finished)
		queue = append(queue, q)
		run = append(run, r)
		unattr = append(unattr, op.call.ms()-q-r)
		rttSum += op.call.ms()
		queueSum += q
		for _, t := range v.Timings {
			phases[t.Phase] += t.TotalMS
		}
	}
	n := float64(len(ops))
	res.Layers["unattributed_p50_ms"] = p50Metric(unattr, "ms")
	res.Layers["run_mean_ms"] = metric{Value: mean(run), Unit: "ms", Samples: len(run)}
	res.Layers["queue_wait_share"] = metric{Value: ratio(queueSum, rttSum), Unit: "1"}
	res.Layers["gen_late_p99_ms"] = tailMetric(late, "ms")
	res.Layers["serve.queue_wait_p50_ms"] = p50Metric(queue, "ms")
	if m, ok := pctMetric(queue, 99, "ms"); ok {
		res.Layers["serve.queue_wait_p99_ms"] = m
	}
	res.Layers["serve.run_p50_ms"] = p50Metric(run, "ms")
	for name, total := range phases {
		res.Layers["phase."+name+"_ms"] = metric{Value: total / float64(fresh), Unit: "ms", Samples: fresh}
	}
	serveLayers(res, before, after, n)
	res.Layers["cluster.forwards_per_op"] = metric{Value: delta(before, after, "emiserve_cluster_forwards_total") / n, Unit: "count"}
	res.Layers["cluster.retries"] = metric{Value: delta(before, after, "emiserve_cluster_retries_total"), Unit: "count"}
	res.Layers["serve.rejected"] = metric{Value: delta(before, after, "emiserve_rejected_total"), Unit: "count"}
}

// serveLayers derives the engine, result-reuse and WAL metrics every
// service workload reports from the /metrics deltas around a window of n
// ops. A layer that saw no work reports 0.
func serveLayers(res *result, before, after prom, n float64) {
	d := func(name string, match ...string) float64 { return delta(before, after, name, match...) }
	hits, misses := d("engine_cache_hits_total"), d("engine_cache_misses_total")
	res.Layers["engine.cache_hit_ratio"] = metric{Value: ratio(hits, hits+misses), Unit: "1"}
	res.Layers["engine.neumann_per_op"] = metric{Value: d("engine_neumann_integrals_total") / n, Unit: "count"}
	res.Layers["engine.factorizations_per_op"] = metric{Value: d("engine_lu_factorizations_total") / n, Unit: "count"}
	res.Layers["engine.resolves_per_op"] = metric{Value: d("engine_lu_resolves_total") / n, Unit: "count"}
	reused := d("emiserve_dedup_hits_total") + d("emiserve_result_store_hits_total")
	res.Layers["serve.reuse_ratio"] = metric{Value: ratio(reused, reused+d("emiserve_submitted_total")), Unit: "1"}
	res.Layers["store.appends_per_op"] = metric{Value: d("emiserve_store_appends_total") / n, Unit: "count"}
}

// slowJobs holds the server traces of the slowest fresh jobs of a traced
// window. A trace is fetched (from path + job ID) the moment its job ranks
// among them: a replica keeps only its latest few hundred jobs, so by the
// end of a busy window the early traces are gone.
type slowJobs struct {
	path string
	mu   sync.Mutex
	jobs []slowJob // slowest first, at most slowTraces
}

type slowJob struct {
	ms  float64
	id  string
	doc obs.ChromeDoc
}

// slowTraces is how many of the slowest traced jobs keep their trace.
const slowTraces = 20

// capture fetches op's server trace when op ranks among the slowest.
func (s *slowJobs) capture(ctx context.Context, cl *client, op jobOp) error {
	ms := op.call.ms()
	s.mu.Lock()
	ranks := len(s.jobs) < slowTraces || ms > s.jobs[len(s.jobs)-1].ms
	s.mu.Unlock()
	if !op.fresh || !ranks {
		return nil
	}
	tc := cl.do(ctx, http.MethodGet, s.path+op.view.ID, nil, false)
	if !tc.ok() {
		return fmt.Errorf("trace of %s: status %d: %v", op.view.ID, tc.status, tc.err)
	}
	j := slowJob{ms: ms, id: op.view.ID}
	if err := json.Unmarshal(tc.body, &j.doc); err != nil {
		return fmt.Errorf("trace of %s: %w", op.view.ID, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.jobs = append(s.jobs, j)
	sort.Slice(s.jobs, func(a, b int) bool { return s.jobs[a].ms > s.jobs[b].ms })
	s.jobs = s.jobs[:min(len(s.jobs), slowTraces)]
	return nil
}

// write writes the Chrome trace of a jobs or batch run: the client spans of
// the traced window plus the kept server traces. It reports the client
// send, wait and read self times and the self time of every server span.
func (s *slowJobs) write(c *config, res *result, spans *spanLog) error {
	doc := spans.doc()
	selfLayers(res, doc.TraceEvents)
	clientEvents := len(doc.TraceEvents)
	for i, j := range s.jobs {
		attach(&doc, j.doc, 10*(i+1), "job "+j.id)
	}
	serverSelf(res, doc.TraceEvents[clientEvents:], len(s.jobs))
	return res.writeTrace(c, doc)
}

// mean returns the arithmetic mean of xs, NaN for none.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio returns a/b, 0 when b is 0 (a layer that saw no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// checkJobs verifies every measured result: identical bodies must get
// identical results, predicts and couples are recomputed in-process, and
// placements are re-checked by a client-side DRC.
func checkJobs(res *result, ops []jobOp) {
	first := map[string][]byte{}
	var predicts, couples []jobOp
	for _, op := range ops {
		if !op.call.ok() || op.view.State != serve.StateDone {
			continue // already counted
		}
		key := string(op.req.kind) + "\x00" + string(op.req.body)
		if prev, ok := first[key]; ok {
			if !bytes.Equal(prev, op.view.Result) {
				res.fail("%s %s: result differs from an earlier identical request", op.req.kind, op.view.ID)
			}
			continue
		}
		first[key] = op.view.Result
		switch op.req.kind {
		case serve.KindPredict:
			predicts = append(predicts, op)
		case serve.KindCouple:
			couples = append(couples, op)
		case serve.KindPlace:
			if err := checkPlace(op.req.body, op.view.Result); err != nil {
				res.fail("place %s: %v", op.view.ID, err)
			}
		}
	}
	for i, op := range predicts {
		if i == predictCheck*2 {
			break
		}
		if err := checkPredict(op.req.body, op.view.Result); err != nil {
			res.fail("predict %s: %v", op.view.ID, err)
		}
	}
	for i, op := range couples {
		if i == coupleCheck {
			break
		}
		if err := checkCouple(op.req.body, op.view.Result); err != nil {
			res.fail("couple %s: %v", op.view.ID, err)
		}
	}
	res.Run["checked_predicts"] = float64(min(len(predicts), predictCheck*2))
}

// checkPredict recomputes a predict request with emi.Predictor and
// requires the served spectrum to be bit-identical.
func checkPredict(body, result []byte) error {
	var req serve.PredictRequest
	var got serve.PredictResponse
	if err := json.Unmarshal(body, &req); err != nil {
		return err
	}
	if err := json.Unmarshal(result, &got); err != nil {
		return err
	}
	ckt, err := netlist.Parse(strings.NewReader(req.Netlist))
	if err != nil {
		return err
	}
	p := &emi.Predictor{Circuit: ckt, Sources: req.Sources, MeasureNode: req.Measure, MaxFreq: req.MaxFreq}
	want, err := p.SpectrumCtx(context.Background())
	if err != nil {
		return err
	}
	if !bitEqual(got.FreqsHz, want.Freqs) || !bitEqual(got.LevelsDBuV, want.DB) {
		return fmt.Errorf("spectrum differs from the in-process prediction")
	}
	return nil
}

// checkPlace requires a placement result to reparse, to place every
// component of the request, and to agree with a client-side DRC.
func checkPlace(body, result []byte) error {
	var req serve.PlaceRequest
	var got serve.PlaceResponse
	if err := json.Unmarshal(body, &req); err != nil {
		return err
	}
	if err := json.Unmarshal(result, &got); err != nil {
		return err
	}
	in, err := layout.ReadString(req.Design)
	if err != nil {
		return err
	}
	d, err := layout.ReadString(got.Design)
	if err != nil {
		return fmt.Errorf("placed design does not reparse: %w", err)
	}
	if got.Placed != len(in.Comps) || len(d.Comps) != len(in.Comps) {
		return fmt.Errorf("placed %d of %d components", got.Placed, len(in.Comps))
	}
	rep := drc.Check(d)
	if rep.Green() != got.Green || len(rep.Violations) != len(got.Violations) {
		return fmt.Errorf("served green=%v with %d violations, client DRC green=%v with %d",
			got.Green, len(got.Violations), rep.Green(), len(rep.Violations))
	}
	return nil
}

// checkCouple recomputes a coupling sweep with components.CouplingFactor
// and requires bit-identical factors at the same distances.
func checkCouple(body, result []byte) error {
	var req serve.CoupleRequest
	var got serve.CoupleResponse
	if err := json.Unmarshal(body, &req); err != nil {
		return err
	}
	if err := json.Unmarshal(result, &got); err != nil {
		return err
	}
	a, err := components.ParseSpec(req.A)
	if err != nil {
		return err
	}
	b, err := components.ParseSpec(req.B)
	if err != nil {
		return err
	}
	var dists, ks []float64
	ia := &components.Instance{Ref: "A", Model: a}
	for mm := req.FromMM; mm <= req.ToMM+1e-9; mm += req.StepMM {
		ib := &components.Instance{Ref: "B", Model: b, Center: geom.V2(0, mm*1e-3)}
		dists = append(dists, mm)
		ks = append(ks, math.Abs(components.CouplingFactor(ia, ib, peec.DefaultOrder)))
	}
	if !bitEqual(got.DistancesMM, dists) || !bitEqual(got.K, ks) {
		return fmt.Errorf("coupling factors differ from the in-process extraction")
	}
	return nil
}

// bitEqual compares two float slices bit for bit.
func bitEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
