// Command perfbench is the repository benchmark: it drives one workload
// through the public APIs of internal/experiments, framesim, sweepstore
// and sweepserve (the service in process, over loopback HTTP), checks
// every result, and prints the metrics BENCHMARK.json names. The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// run also makes a traced pass and replays, and reports the per-layer
// ones, a self-time table per phase and a span file.
//
// Run it from the repository root with perfbench/run.sh, which builds it
// into .bench_build/perfbench:
//
//	bash perfbench/run.sh --workload frame-dense --seed 1 --seconds 10 --trace 0
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"
)

// procStart approximates process start: package variables initialise
// before main runs.
var procStart = time.Now()

// outDir holds the stores, temp files and span files of a run, relative
// to the repository root the benchmark runs from.
var outDir = filepath.Join(".bench_build", "perfbench")

// setupSamples and setupSeconds are the least number of set-ups timed
// for setup_s and the least time spent in them. A set-up computes the
// reference fold, 0.1 to 0.7 s, so the cheap workloads get more samples.
// Fewer than about 8 samples left setup_s on stack spread by up to 55%
// within a run.
const (
	setupSamples = 5
	setupSeconds = 5.0
)

// runLimit bounds a whole run, well inside the 180 s a run may take.
const runLimit = 170 * time.Second

func main() { os.Exit(run(os.Args[1:])) }

// run parses the flags and runs the benchmark. The report and the
// result line go to standard output only when the run completed;
// otherwise the report goes to standard error and the exit code is not 0.
func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name (see BENCHMARK.json)")
	seed := fs.Int64("seed", defaultSeed, "workload seed; the program sees only the spec built from it")
	seconds := fs.Float64("seconds", 10, "measured seconds per run")
	trace := fs.Int("trace", 0, "1: add a traced pass and report the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: want --seconds > 0 and --trace 0 or 1")
		return 2
	}
	recorded, err := recordedDigests()
	if err == nil {
		err = os.MkdirAll(outDir, 0o755)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	cfg := config{
		workload: wl, seed: *seed, seconds: *seconds, trace: *trace == 1,
		out: outDir, setups: setupSamples, setupFor: setupSeconds, recorded: recorded, log: new(bytes.Buffer),
	}
	res, err := benchmark(cfg)
	var blob []byte
	if err == nil {
		blob, err = json.Marshal(res)
	}
	if err != nil {
		if _, werr := os.Stderr.Write(cfg.log.Bytes()); werr != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", werr)
		}
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if _, err := os.Stdout.Write(cfg.log.Bytes()); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(blob))
	return 0
}

// result is the final JSON line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// benchmark runs one workload process end to end and reports it.
func benchmark(cfg config) (result, error) {
	ctx, cancel := context.WithTimeout(context.Background(), runLimit)
	defer cancel()
	w := cfg.log
	fmt.Fprintf(w, "perfbench workload=%s seed=%d seconds=%g trace=%t\n", cfg.workload.name, cfg.seed, cfg.seconds, cfg.trace)
	fmt.Fprintln(w, stamp())

	r := newRunner(cfg)
	e, err := r.setUpTimed(ctx, procStart)
	if err != nil {
		return result{}, err
	}
	metrics, reportOnly, err := r.measure(ctx, e)
	if terr := e.tearDown(); err == nil && terr != nil {
		err = fmt.Errorf("tear-down: %w", terr)
	}
	if err != nil {
		return result{}, err
	}

	res := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, m := range metrics {
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			if res.Correct {
				return result{}, fmt.Errorf("metric %s has no value", m.name)
			}
			v = 0 // operations failed; the run is reported incorrect
		}
		res.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
		fmt.Fprintf(w, "metric %-36s %14.6g %-6s n=%d", m.name, v, m.unit, len(m.samples))
		if len(m.samples) > 1 {
			q1, q3 := quartiles(m.samples)
			fmt.Fprintf(w, " q1=%.6g q3=%.6g spread=%.1f%%", q1, q3, 100*spread(m.samples))
		}
		if m.note != "" {
			fmt.Fprintf(w, " (%s)", m.note)
		}
		fmt.Fprintln(w)
	}
	for _, m := range reportOnly {
		fmt.Fprintf(w, "metric %-36s %14.6g %-6s n=%d (report only; per-layer metric) %s\n", m.name, m.value, m.unit, len(m.samples), m.note)
	}
	frac := 0.0
	if r.attempted > 0 {
		frac = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "metric %-36s %14.6g %-6s (%d of %d operations failed)\n", "failed_frac", frac, "ratio", r.failed, r.attempted)
	if n := r.failedIn["reference"]; n > 0 {
		fmt.Fprintf(w, "failed in reference: %d\n", n)
	}
	for _, ph := range plan {
		if n := r.failedIn[ph.name]; n > 0 {
			fmt.Fprintf(w, "failed in %s: %d\n", ph.name, n)
		}
	}
	for _, msg := range r.errs {
		fmt.Fprintln(w, "failure:", msg)
	}
	if r.attempted == 0 {
		return result{}, errors.New("no operations attempted")
	}
	return res, nil
}

// measure runs the timed pass, or with tracing an untraced pass, a
// traced pass and the replays. reportOnly are the per-layer figures an
// untraced run prints without reporting them.
func (r *runner) measure(ctx context.Context, e *env) (metrics, reportOnly []metric, err error) {
	// Peak RSS is the high-water mark of GC pacing; on small heaps it
	// moved between 16 and 28 MB from run to run, too wide for a bound.
	rss := func() (metric, error) {
		v, err := peakRSSMB()
		return metric{name: "peak_rss_mb", unit: "MB", value: v}, err
	}
	if !r.cfg.trace {
		p, err := r.runPass(ctx, e, r.cfg.seconds, "p")
		if err != nil {
			return nil, nil, err
		}
		m, err := rss()
		if err != nil {
			return nil, nil, err
		}
		return endToEnd(r.setups, p), []metric{warmP95(p), m}, nil
	}

	plain, err := r.runPass(ctx, e, r.cfg.seconds/2, "plain")
	if err != nil {
		return nil, nil, err
	}
	r.tr = newTracer()
	defer func() { r.tr = nil }()
	traced, err := r.runPass(ctx, e, r.cfg.seconds/2, "traced")
	if err != nil {
		return nil, nil, err
	}
	rep, err := r.runReplays(ctx, e)
	if err != nil {
		return nil, nil, err
	}
	spans := r.tr.snapshot()
	tables := layerTables(spans)
	for _, lt := range tables {
		lt.print(r.cfg.log, r.cfg.workload.name)
	}
	path := filepath.Join(r.cfg.out, fmt.Sprintf("spans-%s-seed%d.jsonl", r.cfg.workload.name, r.cfg.seed))
	if err := r.tr.writeFile(path); err != nil {
		return nil, nil, err
	}
	fmt.Fprintf(r.cfg.log, "spans %d written to %s\n", len(spans), path)
	m, err := rss()
	if err != nil {
		return nil, nil, err
	}
	return append(r.perLayer(e.spec, plain, traced, spans, tables, rep), warmP95(plain), m), nil, nil
}
