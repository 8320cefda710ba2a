// Command emibench is the repository's benchmark: one command that builds
// emiserve, emirouter, emiscale and figures from the working tree, drives
// them with four workloads as child processes, checks every output for
// correctness, and prints every metric by name with its unit.
//
// Usage (from the repository root; the module lives in cmd/emibench):
//
//	bash cmd/emibench/run.sh [-workload all|jobs,edits,batch,offline] [-seed 1]
//	                         [-seconds 20] [-trace 0|1] [-trace-dir DIR] [-out FILE]
//	bash cmd/emibench/run.sh -compare A.json,... B.json,...
//
// run.sh keeps the Go build cache and every output under .bench_build/;
// `go -C cmd/emibench run . -seed 1` works too, and `go -C cmd/emibench
// test .` runs the checker, statistics and pacing tests plus a smoke test
// of every workload against in-process servers. The last line of standard
// output is one JSON object with "correct", "attempted", "failed" and
// "metrics": the end_to_end metrics of BENCHMARK.json, or with -trace 1 its
// per_layer metrics; with several workloads each name is prefixed with the
// workload. -out writes the full versioned record (schema, commit, Go
// version, GOMAXPROCS, nproc, seed, run lengths, every metric with its
// unit, sample count and percentile, the per-layer block and the trace
// paths). A run whose outputs fail a check, or whose measurement is
// invalid (a named percentile without ten samples beyond it, a late
// generator, a board on the wrong side of the solver choice), exits 1
// after printing its result.
//
// # Workloads
//
// The seed is an argument; the servers receive only the generated request
// bodies. Each workload stresses different layers:
//
//   - jobs: two closed-loop clients POST ?wait=1 through emirouter to two
//     durable emiserve replicas (-fsync off). 40 % predict of the Figure 14
//     buck netlist with every extracted coupling and a seeded load
//     resistor, 30 % place of testdata/buck_design.txt on a board scaled
//     by a seeded 1.0–1.2, 20 % couple of seeded catalog pairs, 10 % exact
//     resends of one of the client's last 64 bodies. Short jobs make HTTP,
//     routing, queueing, dedup, the result store and JSON a large part of
//     each request; it is the only workload with repeated inputs and the
//     only one through the router.
//   - edits: an open loop at 200 ops/s on one connection to one durable
//     emiserve, plus one SSE subscriber, against a session of the Figure 9
//     sized synthetic board (29 devices, 100 rules, 3 groups, autoplaced).
//     80 % mutations (moves and rotations, 5 % clearance changes, undo and
//     redo when the client mirror allows them), 20 % reads (state with
//     violations, snapshot). Incremental DRC, WAL append and compaction and
//     SSE fan-out run per op with no numerics and no router. Latency is
//     timed from each op's due time; the generator sleeps to 400 µs before
//     it and spins the rest, and reports its own lateness.
//   - batch: one client runs design iterations — an explore job (builtin
//     buck, population 8, 2 generations) then a yield job (builtin buck, 96
//     samples), seeds seed+i — on one in-memory emiserve, submitting each
//     asynchronously and following its event stream to the end. Pair 0
//     warms up; the measured pairs are a fixed count set by -seconds; pair
//     0 is recomputed at the end. Placement, PEEC on a warm memo cache, MNA
//     band solves and the engine pool dominate; serving cost is negligible.
//     The jobs are small because a job's time varies by ±20 % from run to
//     run on a small machine, so a run needs many of them for a steady
//     median.
//   - offline: repetitions of `figures -all` and `emiscale -segments 10000
//     -theta 0.3` at -pairs-dist 0.05 and 0.01, each a fresh process with a
//     cold cache. No service layer: the paper's reproduction plus exact and
//     hierarchical PEEC, placement, transient, sensitivity, and dense and
//     sparse LU. The 50 mm radius makes the auto solver pick dense and the
//     10 mm radius sparse, one board on each side of the choice. Its inputs
//     do not depend on the seed.
//
// Jobs and edits warm up for a tenth of -seconds before measuring; jobs
// first computes each of its few distinct couple bodies once, so no cold
// field integral lands in the window. Batch and offline do a fixed amount
// of work sized from -seconds at its nominal cost, so two commits run the
// same work. Load comes from at most two connections per workload;
// /metrics scrapes at the window boundaries use one more.
//
// # Metrics
//
// Every workload reports the same end-to-end metrics, for its own op (a
// job; a session op, whose latency is taken over the mutations; an
// explore+yield pair; a command run): setup_s (service: spawn until
// /readyz answers, plus the session create for edits, set up five times
// and the median taken; offline: median board generation time),
// p50_ms and tail_ms (client-observed op latency; the tail is the highest
// of p99/p95/p90/p75/p50 with at least ten samples beyond it, else the
// slowest op, and the record names it), ops_per_s and rss_mb (peak RSS
// summed over the server processes, or the largest offline child). Each
// workload adds its own named metrics (job_p99_ms, edit_p99_ms,
// delta_p99_ms, explore_evals_per_s, yield_samples_per_s, figures_s,
// board_dense_s, board_sparse_s, fail_frac, ...).
//
// Per-layer metrics are measured from outside: the job views' created,
// started and finished times and timings, deltas of the /metrics counters
// scraped around the measured window, and the -stats and -json output of
// figures and emiscale. The ones every workload reports are listed in
// BENCHMARK.json; a layer a workload does not exercise reports 0 counts.
//
// # Tracing
//
// With -trace 1 the measured length is split: the first half runs
// untraced and gives the counter-based layer metrics, the second half
// records the benchmark's own client spans (send, wait, read) and fetches
// the server traces of the 20 slowest jobs (/cluster/trace or
// /debug/trace), or runs figures -trace. One Chrome trace per workload is
// written to -trace-dir, each span's self time is reported as
// self.<span>_ms, and trace_overhead_pct compares the traced half's
// primary latency with the untraced half's. End-to-end metrics come only
// from untraced runs.
//
// # Comparing
//
// -compare takes two comma-separated lists of -out records (parent, then
// change) and prints one row per workload × metric with each side's median
// and quartiles. End-to-end metrics are judged against the bounds in
// BENCHMARK.json: a worse median beyond the bound is "regressed", a parent
// spread wider than the bound is "unresolved" unless every run of the
// change beats every run of the parent. The exit status is 1 when anything
// regressed. Two baseline run sets of one commit are kept in baseline/.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// workloads are the benchmark's workloads in run order.
var workloads = []struct {
	name string
	run  func(context.Context, *config) (*result, error)
}{
	{"jobs", runJobs},
	{"edits", runEdits},
	{"batch", runBatch},
	{"offline", runOffline},
}

// record is the versioned result file -out writes.
type record struct {
	Schema     int       `json:"schema"`
	Commit     string    `json:"commit"`
	GoVersion  string    `json:"go_version"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	NProc      int       `json:"nproc"`
	Seed       int64     `json:"seed"`
	Seconds    float64   `json:"seconds"`
	Trace      bool      `json:"trace"`
	Started    time.Time `json:"started"`
	Workloads  []*result `json:"workloads"`
}

// recordSchema is bumped whenever a field of record or result changes
// meaning.
const recordSchema = 1

// benchSpec is the part of BENCHMARK.json the benchmark reads: which
// metrics the final line carries, and their bounds.
type benchSpec struct {
	EndToEnd []bound `json:"end_to_end"`
	PerLayer []bound `json:"per_layer"`
}

// line returns the metrics the final line carries for res — the
// end-to-end ones, or in a traced run the per-layer ones — and the map of
// res that holds them.
func (s *benchSpec) line(res *result, trace bool) ([]bound, map[string]metric) {
	if trace {
		return s.PerLayer, res.Layers
	}
	return s.EndToEnd, res.Metrics
}

func readSpec(root string) (*benchSpec, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "emibench:", err)
		os.Exit(1)
	}
}

// errInvalid reports a run that printed its result but failed a check or
// measured invalidly.
var errInvalid = errors.New("run failed its checks or measured invalidly (see above)")

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("emibench", flag.ContinueOnError)
	root := fs.String("root", "", "repository root (default: found from the working directory)")
	names := fs.String("workload", "all", "comma-separated workloads, or all")
	seed := fs.Int64("seed", 1, "input seed")
	secs := fs.Float64("seconds", 20, "measured length of each workload run")
	trace := fs.Int("trace", 0, "1: per-layer run with client spans and server traces")
	traceDir := fs.String("trace-dir", "", "directory for Chrome traces (default ROOT/.bench_build/traces)")
	out := fs.String("out", "", "write the versioned run record to this file")
	compare := fs.Bool("compare", false, "compare two comma-separated lists of records: -compare A,... B,...")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *root == "" {
		var err error
		if *root, err = findRoot(); err != nil {
			return err
		}
	}
	spec, err := readSpec(*root)
	if err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare needs two record lists")
		}
		return runCompare(stdout, spec, fs.Arg(0), fs.Arg(1))
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1")
	}
	if *secs <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	var selected []int
	for _, n := range splitList(*names) {
		found := false
		for i, w := range workloads {
			if n == w.name || n == "all" {
				selected = append(selected, i)
				found = true
			}
		}
		if !found {
			return fmt.Errorf("unknown workload %q", n)
		}
	}
	if len(selected) == 0 {
		return fmt.Errorf("no workload selected")
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	build := filepath.Join(*root, ".bench_build")
	c := &config{root: *root, bin: filepath.Join(build, "bin"), seed: *seed, seconds: *secs,
		trace: *trace == 1, traceDir: *traceDir, setups: 5, sizes: defaultSizes}
	if c.traceDir == "" {
		c.traceDir = filepath.Join(build, "traces")
	}
	if err := os.MkdirAll(build, 0o755); err != nil {
		return err
	}
	if c.trace {
		if err := os.MkdirAll(c.traceDir, 0o755); err != nil {
			return err
		}
	}
	if err := buildBinaries(ctx, c.root, c.bin); err != nil {
		return err
	}
	if c.work, err = os.MkdirTemp(build, "run-"); err != nil {
		return err
	}
	defer os.RemoveAll(c.work)
	c.launch = procLauncher{bin: c.bin, work: c.work}

	rec := &record{Schema: recordSchema, Commit: commit(), GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(), Seed: c.seed,
		Seconds: c.seconds, Trace: c.trace, Started: time.Now().UTC()}
	for _, i := range selected {
		w := workloads[i]
		res, err := w.run(ctx, c)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		if err := finalize(res, spec, c.trace); err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		printResult(stdout, res)
		rec.Workloads = append(rec.Workloads, res)
	}
	if *out != "" {
		b, err := json.MarshalIndent(rec, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	line, ok := summary(rec.Workloads, spec, c.trace)
	fmt.Fprintln(stdout, line)
	if !ok {
		return errInvalid
	}
	return nil
}

// finalize decides a result's verdict, drops values that are not finite,
// and requires every metric the final line must carry to be present with
// its unit.
func finalize(res *result, spec *benchSpec, trace bool) error {
	res.Correct = res.Failed == 0
	dropNonFinite(res.Metrics)
	dropNonFinite(res.Layers)
	want, have := spec.line(res, trace)
	for _, b := range want {
		m, ok := have[b.Name]
		if !ok {
			return fmt.Errorf("metric %s not measured", b.Name)
		}
		if m.Unit != b.Unit {
			return fmt.Errorf("metric %s in %s, BENCHMARK.json says %s", b.Name, m.Unit, b.Unit)
		}
	}
	return nil
}

// summary renders the final output line. One workload reports its metrics
// by name; several prefix each name with the workload. ok is false when
// any run failed a check or measured invalidly.
func summary(results []*result, spec *benchSpec, trace bool) (line string, ok bool) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Metrics: map[string]value{}}
	ok = true
	for _, res := range results {
		out.Correct = out.Correct && res.Correct
		out.Attempted += res.Attempted
		out.Failed += res.Failed
		ok = ok && res.Correct && len(res.Notes) == 0
		want, have := spec.line(res, trace)
		for _, b := range want {
			name := b.Name
			if len(results) > 1 {
				name = res.Workload + "." + name
			}
			out.Metrics[name] = value{have[b.Name].Value, have[b.Name].Unit}
		}
	}
	b, _ := json.Marshal(out) // plain structs of numbers and strings
	return string(b), ok
}

// printResult writes a workload's metrics, one per line.
func printResult(w io.Writer, res *result) {
	fmt.Fprintf(w, "== %s: correct=%v attempted=%d failed=%d\n", res.Workload, res.Correct, res.Attempted, res.Failed)
	for _, f := range res.Failures {
		fmt.Fprintf(w, "  FAIL %s\n", f)
	}
	for _, n := range res.Notes {
		fmt.Fprintf(w, "  INVALID %s\n", n)
	}
	section := func(title string, ms map[string]metric) {
		names := make([]string, 0, len(ms))
		for n := range ms {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			m := ms[n]
			extra := ""
			switch {
			case m.Percentile != "":
				extra = fmt.Sprintf("  (%s of %d)", m.Percentile, m.Samples)
			case m.Samples > 0:
				extra = fmt.Sprintf("  (n=%d)", m.Samples)
			}
			fmt.Fprintf(w, "  %-8s %-40s %14.6g %-6s%s\n", title, n, m.Value, m.Unit, extra)
		}
	}
	section("metric", res.Metrics)
	section("layer", res.Layers)
	for _, t := range res.Traces {
		fmt.Fprintf(w, "  trace    %s\n", t)
	}
}

// runCompare loads two record sets and prints their comparison.
func runCompare(w io.Writer, spec *benchSpec, a, b string) error {
	load := func(list string) ([]*record, error) {
		var recs []*record
		for _, pat := range splitList(list) {
			files, err := filepath.Glob(pat)
			if err != nil {
				return nil, err
			}
			if len(files) == 0 {
				return nil, fmt.Errorf("no record matches %s", pat)
			}
			for _, f := range files {
				raw, err := os.ReadFile(f)
				if err != nil {
					return nil, err
				}
				var r record
				if err := json.Unmarshal(raw, &r); err != nil {
					return nil, fmt.Errorf("%s: %w", f, err)
				}
				if r.Schema != recordSchema {
					return nil, fmt.Errorf("%s: schema %d, want %d", f, r.Schema, recordSchema)
				}
				recs = append(recs, &r)
			}
		}
		return recs, nil
	}
	ra, err := load(a)
	if err != nil {
		return err
	}
	rb, err := load(b)
	if err != nil {
		return err
	}
	bounds := map[string]bound{}
	for _, e := range spec.EndToEnd {
		bounds[e.Name] = e
	}
	if printCompare(w, compareRecords(ra, rb, bounds), bounds) {
		return fmt.Errorf("regression beyond a bound")
	}
	return nil
}

// findRoot walks up from the working directory to the repository root:
// the directory whose go.mod declares module repro.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if b, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil &&
			strings.HasPrefix(string(b), "module repro\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no repository root (go.mod of module repro) above the working directory")
		}
		dir = parent
	}
}

// commit returns the VCS revision the benchmark was built from, marked
// "+dirty" for a modified tree, or "unknown" outside a repository.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch {
		case s.Key == "vcs.revision":
			rev = s.Value
		case s.Key == "vcs.modified" && s.Value == "true":
			dirty = "+dirty"
		}
	}
	return rev + dirty
}
