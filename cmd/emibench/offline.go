package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
)

// The offline workload: the paper's figures and the scaling board on
// either side of the dense/sparse solver choice, each a fresh process with
// a cold cache, as a command-line user runs them.

// engineStats is what a -stats dump reports.
type engineStats struct {
	neumann, hits, misses, factorizations, resolves, sparse float64
	phases                                                  map[string]float64 // seconds per phase
}

// parseStats reads the "engine: ..." lines a -stats flag prints.
func parseStats(stderr []byte) (engineStats, error) {
	st := engineStats{phases: map[string]float64{}}
	num := func(f []string, key string) float64 {
		for i := 0; i+1 < len(f); i++ {
			if f[i] == key {
				v, _ := strconv.ParseFloat(strings.TrimSuffix(f[i+1], "%"), 64)
				return v
			}
		}
		return 0
	}
	seen := false
	sc := bufio.NewScanner(bytes.NewReader(stderr))
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "engine: ")
		if !ok {
			continue
		}
		seen = true
		f := strings.Fields(rest)
		switch {
		case strings.HasPrefix(rest, "neumann integrals "):
			st.neumann = num(f, "integrals")
		case strings.HasPrefix(rest, "cache hits "):
			st.hits, st.misses = num(f, "hits"), num(f, "misses")
		case strings.HasPrefix(rest, "lu assemblies "):
			st.factorizations, st.resolves = num(f, "factorizations"), num(f, "resolves")
		case strings.HasPrefix(rest, "solver "):
			st.sparse = num(f, "sparse-factorizations")
		case strings.HasPrefix(rest, "phase ") && len(f) >= 6:
			d, err := time.ParseDuration(f[5])
			if err != nil {
				return st, fmt.Errorf("phase line %q: %w", rest, err)
			}
			st.phases[f[1]] += d.Seconds()
		}
	}
	if !seen {
		return st, fmt.Errorf("no engine statistics in the output")
	}
	return st, nil
}

// scaleRecord is the emiscale -json record.
type scaleRecord struct {
	Harmonics  int     `json:"harmonics"`
	ExtractSec float64 `json:"extract_s"`
	PredictSec float64 `json:"predict_s"`
	TotalSec   float64 `json:"total_s"`
	WorstDB    float64 `json:"worst_margin_db"`
}

// figuresGolden returns the committed figures output for the selected
// figures, without the wall-clock and SVG lines that vary by run.
func figuresGolden(root string, args []string) (string, error) {
	b, err := os.ReadFile(filepath.Join(root, "figures_output.txt"))
	if err != nil {
		return "", err
	}
	golden := stableFigures(b)
	if len(args) == 2 && args[0] == "-fig" {
		head := "== Figure " + args[1] + ":"
		start := strings.Index(golden, head)
		if start < 0 {
			return "", fmt.Errorf("figure %s not in figures_output.txt", args[1])
		}
		rest := golden[start:]
		if end := strings.Index(rest[len(head):], "\n== Figure "); end >= 0 {
			rest = rest[:len(head)+end+1]
		}
		return rest, nil
	}
	return golden, nil
}

// stableFigures drops the lines of a figures run that vary between runs.
func stableFigures(out []byte) string {
	var b strings.Builder
	for _, line := range strings.SplitAfter(string(out), "\n") {
		if strings.Contains(line, "computation time:") || strings.HasPrefix(line, "# SVG written") {
			continue
		}
		b.WriteString(line)
	}
	return b.String()
}

// checkFigures requires a figures run to print the committed output.
func checkFigures(res *result, stdout []byte, golden string) {
	got := stableFigures(stdout)
	if got == golden {
		return
	}
	line := 1 + strings.Count(got[:commonPrefix(got, golden)], "\n")
	res.fail("figures output differs from figures_output.txt from line %d", line)
}

// commonPrefix returns the length of the longest common prefix of a and b.
func commonPrefix(a, b string) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// offlineRun is one command of a repetition and what it reported.
type offlineRun struct {
	name   string // figures, board_dense, board_sparse
	cmd    command
	stats  engineStats
	scale  scaleRecord // boards only
	traced bool
}

func (r offlineRun) wallMS() float64 { return msBetween(r.cmd.start, r.cmd.end) }

// reportedMS is the time the program accounts for itself: a board's
// total, or the figures' summed phases.
func (r offlineRun) reportedMS() float64 {
	if r.name != "figures" {
		return 1e3 * r.scale.TotalSec
	}
	var s float64
	for _, v := range r.stats.phases {
		s += v
	}
	return 1e3 * s
}

// runOffline drives the offline workload: repetitions of figures and the
// two boards, as many as fit the measured length at their nominal cost.
func runOffline(ctx context.Context, c *config) (*result, error) {
	res := newResult("offline")
	golden, err := figuresGolden(c.root, c.sizes.figuresArgs)
	if err != nil {
		return nil, err
	}
	reps := max(1, int(math.Round(c.seconds/c.sizes.offlineRepSec)))
	if c.trace {
		reps = max(2, reps)
	}
	res.Run = map[string]float64{"repetitions": float64(reps), "segments": float64(c.sizes.boardSegments)}
	segs := strconv.Itoa(c.sizes.boardSegments)
	board := func(dist string) []string {
		return []string{"-segments", segs, "-theta", "0.3", "-pairs-dist", dist, "-stats"}
	}
	cmds := []struct {
		name, bin string
		args      []string
	}{
		{"figures", "figures", append(append([]string(nil), c.sizes.figuresArgs...), "-stats")},
		{"board_dense", "emiscale", board("0.05")},
		{"board_sparse", "emiscale", board("0.01")},
	}
	spans := newSpanLog()
	var figTraces []obs.ChromeDoc
	var runs []offlineRun
	prevEnd := time.Now()
	var late []float64
	for rep := 0; rep < reps; rep++ {
		traced := c.trace && rep >= reps/2
		for i, cm := range cmds {
			out := filepath.Join(c.work, fmt.Sprintf("out-%d-%d.json", rep, i)) // -json record or -trace
			args := append([]string(nil), cm.args...)
			if cm.bin == "emiscale" {
				args = append(args, "-json", out)
			} else if traced {
				args = append(args, "-trace", out)
			}
			r := offlineRun{name: cm.name, traced: traced}
			r.cmd, err = runCommand(ctx, c.work, filepath.Join(c.bin, cm.bin), args...)
			res.Attempted++
			late = append(late, msBetween(prevEnd, r.cmd.start))
			if err != nil {
				res.fail("%s: %v", cm.name, err)
				prevEnd = time.Now()
				continue
			}
			if r.stats, err = parseStats(r.cmd.stderr); err != nil {
				res.fail("%s: %v", cm.name, err)
			}
			switch {
			case cm.bin == "emiscale":
				if b, err := os.ReadFile(out); err != nil || json.Unmarshal(b, &r.scale) != nil {
					res.fail("%s: unreadable -json record: %v", cm.name, err)
				}
			case traced:
				var d obs.ChromeDoc
				b, err := os.ReadFile(out)
				if err == nil {
					err = json.Unmarshal(b, &d)
				}
				if err != nil {
					return nil, fmt.Errorf("figures trace: %w", err)
				}
				figTraces = append(figTraces, d)
				fallthrough
			default:
				checkFigures(res, r.cmd.stdout, golden)
			}
			prevEnd = time.Now()
			if traced {
				spans.add("client "+cm.name, 1, r.cmd.start, prevEnd)
				spans.add("send", 1, r.cmd.start, r.cmd.started)
				spans.add("wait", 1, r.cmd.started, r.cmd.end)
				spans.add("read", 1, r.cmd.end, prevEnd)
			}
			runs = append(runs, r)
		}
	}
	checkBoards(res, runs)
	offlineMetrics(res, runs, late)
	if c.trace {
		var un, tr []float64
		for _, r := range runs {
			if r.name == "figures" {
				if r.traced {
					tr = append(tr, r.wallMS())
				} else {
					un = append(un, r.wallMS())
				}
			}
		}
		res.Layers["trace_overhead_pct"] = overheadPct(median(un), median(tr))
		doc := spans.doc()
		selfLayers(res, doc.TraceEvents)
		clientEvents := len(doc.TraceEvents)
		for i, d := range figTraces {
			attach(&doc, d, 10*(i+1), "figures")
		}
		serverSelf(res, doc.TraceEvents[clientEvents:], len(figTraces))
		if err := res.writeTrace(c, doc); err != nil {
			return nil, err
		}
	}
	res.Metrics["fail_frac"] = metric{Value: res.failFrac(), Unit: "1"}
	return res, nil
}

// checkBoards requires every repetition of a board to report the same
// worst margin and harmonic count, and notes when the boards no longer sit
// on either side of the solver choice the workload exists to measure.
func checkBoards(res *result, runs []offlineRun) {
	first := map[string]scaleRecord{}
	for _, r := range runs {
		if r.name == "figures" {
			continue
		}
		f, ok := first[r.name]
		if !ok {
			first[r.name] = r.scale
			switch {
			case r.name == "board_dense" && r.stats.sparse != 0:
				res.Notes = append(res.Notes, fmt.Sprintf("the 50 mm board ran %g sparse factorizations, want 0", r.stats.sparse))
			case r.name == "board_sparse" && r.stats.sparse == 0:
				res.Notes = append(res.Notes, "the 10 mm board ran no sparse factorization")
			}
			continue
		}
		if r.scale.Harmonics != f.Harmonics || math.Float64bits(r.scale.WorstDB) != math.Float64bits(f.WorstDB) {
			res.fail("%s: %d harmonics, worst margin %v dB; first repetition %d, %v dB",
				r.name, r.scale.Harmonics, r.scale.WorstDB, f.Harmonics, f.WorstDB)
		}
	}
}

// offlineMetrics derives the offline end-to-end and per-layer metrics
// from the untraced runs.
func offlineMetrics(res *result, runs []offlineRun, late []float64) {
	var walls, unattr, reported, boardSetup []float64
	by := map[string][]offlineRun{}
	var st engineStats
	var wallSum, rss float64
	for _, r := range runs {
		rss = max(rss, r.cmd.maxRSSMB)
		if r.traced {
			continue
		}
		by[r.name] = append(by[r.name], r)
		walls = append(walls, r.wallMS())
		wallSum += r.wallMS() / 1e3
		unattr = append(unattr, r.wallMS()-r.reportedMS())
		reported = append(reported, r.reportedMS())
		st.neumann += r.stats.neumann
		st.hits += r.stats.hits
		st.misses += r.stats.misses
		st.factorizations += r.stats.factorizations
		st.resolves += r.stats.resolves
		if r.name != "figures" {
			s := r.scale
			boardSetup = append(boardSetup, s.TotalSec-s.ExtractSec-s.PredictSec)
		}
	}
	med := func(name string, f func(offlineRun) float64) float64 {
		var xs []float64
		for _, r := range by[name] {
			xs = append(xs, f(r))
		}
		return median(xs)
	}
	wallS := func(r offlineRun) float64 { return r.wallMS() / 1e3 }
	n := float64(len(walls))
	res.Metrics["setup_s"] = p50Metric(boardSetup, "s")
	res.Metrics["p50_ms"] = p50Metric(walls, "ms")
	res.Metrics["tail_ms"] = tailMetric(walls, "ms")
	res.Metrics["ops_per_s"] = metric{Value: n / wallSum, Unit: "1/s", Samples: len(walls)}
	res.Metrics["rss_mb"] = metric{Value: rss, Unit: "MiB"}
	res.Metrics["figures_s"] = metric{Value: med("figures", wallS), Unit: "s", Samples: len(by["figures"]), Percentile: "p50"}
	res.Metrics["board_dense_s"] = metric{Value: med("board_dense", wallS), Unit: "s", Samples: len(by["board_dense"]), Percentile: "p50"}
	res.Metrics["board_sparse_s"] = metric{Value: med("board_sparse", wallS), Unit: "s", Samples: len(by["board_sparse"]), Percentile: "p50"}

	res.Layers["unattributed_p50_ms"] = p50Metric(unattr, "ms")
	res.Layers["run_mean_ms"] = metric{Value: mean(reported), Unit: "ms", Samples: len(reported)}
	res.Layers["queue_wait_share"] = metric{Value: 0, Unit: "1"}
	res.Layers["gen_late_p99_ms"] = tailMetric(late, "ms")
	res.Layers["engine.cache_hit_ratio"] = metric{Value: ratio(st.hits, st.hits+st.misses), Unit: "1"}
	res.Layers["engine.neumann_per_op"] = metric{Value: st.neumann / n, Unit: "count"}
	res.Layers["engine.factorizations_per_op"] = metric{Value: st.factorizations / n, Unit: "count"}
	res.Layers["engine.resolves_per_op"] = metric{Value: st.resolves / n, Unit: "count"}
	// No service layer: nothing is reused, journaled or forwarded.
	res.Layers["serve.reuse_ratio"] = metric{Value: 0, Unit: "1"}
	res.Layers["store.appends_per_op"] = metric{Value: 0, Unit: "count"}
	res.Layers["cluster.forwards_per_op"] = metric{Value: 0, Unit: "count"}

	phases := map[string][]float64{}
	for _, r := range by["figures"] {
		for name, s := range r.stats.phases {
			phases[name] = append(phases[name], s)
		}
	}
	var phaseSum float64
	names := make([]string, 0, len(phases))
	for name := range phases {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := median(phases[name])
		phaseSum += v
		res.Layers["figures."+name+"_s"] = metric{Value: v, Unit: "s", Samples: len(phases[name])}
	}
	res.Layers["figures.unattributed_s"] = metric{Value: res.Metrics["figures_s"].Value - phaseSum, Unit: "s"}
	res.Layers["figures.neumann"] = metric{Value: med("figures", func(r offlineRun) float64 { return r.stats.neumann }), Unit: "count"}
	res.Layers["figures.lu_resolves"] = metric{Value: med("figures", func(r offlineRun) float64 { return r.stats.resolves }), Unit: "count"}
	var extract []float64
	for _, r := range append(append([]offlineRun(nil), by["board_dense"]...), by["board_sparse"]...) {
		extract = append(extract, r.scale.ExtractSec)
	}
	res.Layers["peec.extract_s"] = p50Metric(extract, "s")
	res.Layers["offline.neumann"] = metric{Value: med("board_dense", func(r offlineRun) float64 { return r.stats.neumann }), Unit: "count"}
	res.Layers["mna.predict_dense_s"] = metric{Value: med("board_dense", func(r offlineRun) float64 { return r.scale.PredictSec }), Unit: "s"}
	res.Layers["mna.predict_sparse_s"] = metric{Value: med("board_sparse", func(r offlineRun) float64 { return r.scale.PredictSec }), Unit: "s"}
	res.Layers["linalg.sparse_factorizations_dense"] = metric{Value: med("board_dense", func(r offlineRun) float64 { return r.stats.sparse }), Unit: "count"}
	res.Layers["linalg.sparse_factorizations_sparse"] = metric{Value: med("board_sparse", func(r offlineRun) float64 { return r.stats.sparse }), Unit: "count"}
}
