package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"time"

	"repro/internal/serve"
)

// The batch workload: one client runs long explore and yield jobs, one at
// a time, on one in-memory emiserve, submitting each asynchronously and
// following its progress stream to the end.

// batchPair returns the explore and yield requests of pair i.
func batchPair(c *config, i int) [2]jobReq {
	seed := c.seed + int64(i)
	project := serve.ProjectSpec{Builtin: "buck"}
	ex, _ := json.Marshal(serve.ExploreRequest{Project: project, Population: c.sizes.explorePop,
		Generations: c.sizes.exploreGens, Seed: seed})
	yi, _ := json.Marshal(serve.YieldRequest{Project: project, Samples: c.sizes.yieldSamples, Seed: seed})
	return [2]jobReq{{kind: serve.KindExplore, body: ex}, {kind: serve.KindYield, body: yi}}
}

// batchJob submits req asynchronously and follows the job's event stream
// until its done event. The returned op's call spans the submission up to
// the decoded final view; progress counts the intermediate events seen.
func batchJob(ctx context.Context, cl *client, req jobReq, traced bool) (op jobOp, progress int) {
	op.req, op.traced = req, traced
	sub := cl.do(ctx, http.MethodPost, "/v1/"+string(req.kind), req.body, traced)
	op.call = sub
	var ack serve.View
	if sub.status != http.StatusAccepted || json.Unmarshal(sub.body, &ack) != nil {
		if sub.err == nil {
			op.call.err = fmt.Errorf("submit: status %d: %s", sub.status, sub.body)
		}
		return op, 0
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, cl.base+"/v1/jobs/"+ack.ID+"/events", nil)
	if err != nil {
		op.call.err = err
		return op, 0
	}
	resp, err := cl.hc.Do(hreq)
	if err != nil {
		op.call.err = err
		return op, 0
	}
	defer drain(resp)
	var done *sseEvent
	err = readSSE(resp.Body, func(ev sseEvent) bool {
		switch ev.name {
		case "done":
			done = &ev
			return false
		case "front", "yield":
			progress++
		}
		return true
	})
	if done == nil {
		op.call.err = fmt.Errorf("job %s: event stream ended without done: %v", ack.ID, err)
		return op, progress
	}
	op.call.first = done.at
	op.call.body = done.data
	op.call.status = http.StatusOK
	if err := json.Unmarshal(done.data, &op.view); err != nil {
		op.call.err = err
	}
	op.call.end = time.Now()
	op.fresh = true
	return op, progress
}

// runBatch drives the batch workload: pair 0 warms up, the measured
// pairs follow, and pair 0 is submitted again at the end to check that a
// recomputation returns the same results.
func runBatch(ctx context.Context, c *config) (*result, error) {
	res := newResult("batch")
	s, setup, err := setUp(ctx, c, sutSpec{replicas: 1}, nil)
	if err != nil {
		return nil, err
	}
	defer s.stop()
	res.Metrics["setup_s"] = setup
	cl := newClient(s.url, 2)
	defer cl.close()
	spans := newSpanLog()

	pairs := max(1, int(math.Round(c.seconds/c.sizes.batchPairSec)))
	if c.trace {
		pairs = max(2, pairs)
	}
	res.Run = map[string]float64{"warmup_pairs": 1, "measured_pairs": float64(pairs)}
	var warm [2]jobOp
	for k, req := range batchPair(c, 0) {
		warm[k], _ = batchJob(ctx, cl, req, false)
	}

	// Untraced pairs first; with tracing the second half is traced.
	split := pairs
	if c.trace {
		split = pairs / 2
	}
	before, err := scrape(ctx, cl)
	if err != nil {
		return nil, err
	}
	var windows [2][]jobOp
	var progress float64 // progress events received in the untraced pairs
	var mid prom
	slow := &slowJobs{path: "/debug/trace/"}
	prevEnd := time.Now()
	for i := 1; i <= pairs; i++ {
		w := 0
		if i > split {
			w = 1
		}
		if i == split+1 {
			if mid, err = scrape(ctx, cl); err != nil {
				return nil, err
			}
		}
		for _, req := range batchPair(c, i) {
			op, n := batchJob(ctx, cl, req, w == 1)
			op.late = op.call.start.Sub(prevEnd)
			prevEnd = op.call.end
			if w == 0 {
				progress += float64(n)
			} else {
				spans.addCall("client "+string(req.kind), 1, op.call)
				if err := slow.capture(ctx, cl, op); err != nil {
					return nil, err
				}
			}
			windows[w] = append(windows[w], op)
		}
	}
	after, err := scrape(ctx, cl)
	if err != nil {
		return nil, err
	}
	if mid == nil {
		mid = after
	}
	res.Metrics["rss_mb"] = metric{Value: s.rssMB(), Unit: "MiB"}

	// The op is a pair: one design iteration, explore then yield.
	var primary [2]float64
	for w, ops := range windows[:1+btoi(c.trace)] {
		var pairMS []float64
		var evals, samples, exploreMS, yieldMS float64
		for k := 0; k+1 < len(ops); k += 2 {
			ex, yi := ops[k], ops[k+1]
			var exr serve.ExploreResponse
			var yir serve.YieldResponse
			ok := true
			for _, op := range []jobOp{ex, yi} {
				res.Attempted++
				if op.call.err != nil || op.view.State != serve.StateDone {
					res.fail("%s %s: state %q: %v %s", op.req.kind, op.view.ID, op.view.State, op.call.err, op.view.Error)
					ok = false
				}
			}
			if !ok {
				continue
			}
			if err := json.Unmarshal(ex.view.Result, &exr); err != nil {
				res.fail("explore %s: %v", ex.view.ID, err)
				continue
			}
			if err := json.Unmarshal(yi.view.Result, &yir); err != nil {
				res.fail("yield %s: %v", yi.view.ID, err)
				continue
			}
			evals += float64(exr.Evaluations)
			exploreMS += ex.call.ms()
			samples += float64(yir.Samples)
			yieldMS += yi.call.ms()
			pairMS = append(pairMS, ex.call.ms()+yi.call.ms())
		}
		primary[w] = median(pairMS)
		if w > 0 {
			continue
		}
		res.Metrics["p50_ms"] = p50Metric(pairMS, "ms")
		res.Metrics["tail_ms"] = tailMetric(pairMS, "ms")
		res.Metrics["ops_per_s"] = metric{Value: float64(len(pairMS)) / ((exploreMS + yieldMS) / 1e3), Unit: "1/s", Samples: len(pairMS)}
		res.Metrics["explore_evals_per_s"] = metric{Value: evals / (exploreMS / 1e3), Unit: "1/s"}
		res.Metrics["yield_samples_per_s"] = metric{Value: samples / (yieldMS / 1e3), Unit: "1/s"}
		jobLayers(res, ops, before, mid)
		published := delta(before, mid, "emiserve_job_progress_events_total")
		res.Layers["sse.delivered_ratio"] = metric{Value: ratio(progress, published), Unit: "1"}
	}
	if c.trace {
		res.Layers["trace_overhead_pct"] = overheadPct(primary[0], primary[1])
		if err := slow.write(c, res, spans); err != nil {
			return nil, err
		}
	}

	// A recomputation of pair 0 (a reformatted body defeats the result
	// store) must return the same results, apart from the elapsed time.
	for k, req := range batchPair(c, 0) {
		req.body = append(req.body, '\n')
		again, _ := batchJob(ctx, cl, req, false)
		res.Attempted++
		if err := sameResult(warm[k], again); err != nil {
			res.fail("%s recomputation: %v", req.kind, err)
		}
	}
	res.Metrics["fail_frac"] = metric{Value: res.failFrac(), Unit: "1"}
	return res, nil
}

// sameResult requires two finished jobs to carry byte-identical results
// once their elapsed_ms fields are dropped.
func sameResult(a, b jobOp) error {
	norm := func(op jobOp) ([]byte, error) {
		if op.call.err != nil || op.view.State != serve.StateDone {
			return nil, fmt.Errorf("job %s not done: %v %s", op.view.ID, op.call.err, op.view.Error)
		}
		var m map[string]any
		if err := json.Unmarshal(op.view.Result, &m); err != nil {
			return nil, err
		}
		delete(m, "elapsed_ms")
		return json.Marshal(m)
	}
	x, err := norm(a)
	if err != nil {
		return err
	}
	y, err := norm(b)
	if err != nil {
		return err
	}
	if !bytes.Equal(x, y) {
		return fmt.Errorf("results differ")
	}
	return nil
}

// btoi is 1 for true.
func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
