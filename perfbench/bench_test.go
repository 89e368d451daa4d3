package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func tinyConfig(t *testing.T, name string, trace bool) config {
	t.Helper()
	wl, err := findWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	return config{
		workload: wl, seed: defaultSeed, seconds: 0.2, trace: trace, tiny: true,
		out: t.TempDir(), setups: 2, log: new(bytes.Buffer),
	}
}

// Every workload runs clean at smoke size, in both modes, and reports
// exactly the metrics BENCHMARK.json lists for the mode.
func TestSmokeEveryWorkload(t *testing.T) {
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	blob, err := readBenchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(blob, &bench); err != nil {
		t.Fatal(err)
	}
	if len(bench.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, perfbench has %d", len(bench.Workloads), len(workloads))
	}
	for i, w := range bench.Workloads {
		if workloads[i].name != w.Name {
			t.Errorf("workload %d is %q here, %q in BENCHMARK.json", i, workloads[i].name, w.Name)
		}
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			res, err := benchmark(tinyConfig(t, w.name, trace))
			if err != nil {
				t.Fatalf("%s trace=%t: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%t: correct=%t attempted=%d failed=%d", w.name, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := bench.EndToEnd
			if trace {
				want = bench.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%t: %d metrics, BENCHMARK.json lists %d", w.name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				if _, ok := res.Metrics[m.Name]; !ok {
					t.Errorf("%s trace=%t: metric %s missing", w.name, trace, m.Name)
				}
			}
			if !trace {
				for name, v := range res.Metrics {
					if v.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, name, v.Value)
					}
				}
			}
		}
	}
}

// A result that differs from the reference fold by one byte must count
// as a failed operation on every path, never as a pass.
func TestCorruptedResultFails(t *testing.T) {
	cfg := tinyConfig(t, "sweepd", false)
	r := newRunner(cfg)
	e, err := r.setUp()
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := e.tearDown(); err != nil {
			t.Error(err)
		}
	}()
	ctx := context.Background()
	if err := r.reference(ctx, e.spec); err != nil {
		t.Fatal(err)
	}
	if r.failed != 0 {
		t.Fatalf("reference fold failed: %v", r.errs)
	}
	// Corrupt the expected fold: every operation's output now disagrees.
	i := bytes.IndexByte(r.ref.body, '1')
	r.ref.body = append([]byte(nil), r.ref.body...)
	r.ref.body[i] = '2'
	r.ref.digest = digest(r.ref.body)
	p, err := r.runPass(ctx, e, 0.1, "corrupt")
	if err != nil {
		t.Fatal(err)
	}
	if r.failed == 0 || r.failed != r.attempted-int64(r.ref.shards) {
		t.Fatalf("failed %d of %d after corruption, want every timed operation", r.failed, r.attempted)
	}
	for _, ph := range plan {
		if len(p.lat[ph.name]) != 0 {
			t.Errorf("phase %s recorded a latency for a wrong result", ph.name)
		}
	}
	for _, ph := range plan {
		if r.failedIn[ph.name] == 0 {
			t.Errorf("no failure counted for phase %s: %q", ph.name, r.errs)
		}
	}
}

// Every set-up computes the reference fold again; a repeat that differs
// from the first set-up's fold must count as failed.
func TestRepeatedReferenceMismatchFails(t *testing.T) {
	cfg := tinyConfig(t, "sweepd", false)
	r := newRunner(cfg)
	spec := cfg.workload.spec(cfg.seed, cfg.tiny)
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		if err := r.reference(ctx, spec); err != nil {
			t.Fatal(err)
		}
	}
	if r.failed != 0 {
		t.Fatalf("identical reference folds failed: %v", r.errs)
	}
	r.ref.digest = digest([]byte("another fold"))
	if err := r.reference(ctx, spec); err != nil {
		t.Fatal(err)
	}
	if r.failed == 0 || r.failedIn["reference"] != r.failed {
		t.Errorf("differing reference fold not counted as failed: failed %d, in reference %d", r.failed, r.failedIn["reference"])
	}
}

func TestCheckServiceRejects(t *testing.T) {
	ref := reference{body: []byte(`[{"PER":0.001}]`), shards: 4}
	ref.digest = digest(ref.body)
	wl, err := findWorkload("sweepd")
	if err != nil {
		t.Fatal(err)
	}
	spec := wl.spec(defaultSeed, true)
	spec.PERs = spec.PERs[:1]
	spec.Samples = 4 * 64
	good := serviceResult{body: append(append([]byte(nil), ref.body...), '\n')}
	good.status.State = "done"
	good.status.Shards.Total, good.status.Shards.Computed = 4, 4
	if err := checkService(phaseCold, good, ref, spec); err != nil {
		t.Fatalf("good cold result rejected: %v", err)
	}
	for name, mutate := range map[string]func(*serviceResult){
		"body":     func(s *serviceResult) { s.body = []byte(`[{"PER":0.002}]`) },
		"state":    func(s *serviceResult) { s.status.State = "failed" },
		"sum":      func(s *serviceResult) { s.status.Shards.Computed = 3 },
		"cached":   func(s *serviceResult) { s.status.Shards.Computed, s.status.Shards.Cached = 2, 2 },
		"total":    func(s *serviceResult) { s.status.Shards.Total = 5 },
		"no-cache": func(s *serviceResult) { s.status.Shards.Computed, s.status.Shards.Cached = 0, 4 },
	} {
		bad := good
		mutate(&bad)
		phase := phaseCold
		if name == "no-cache" {
			phase = phaseFanout
		}
		if err := checkService(phase, bad, ref, spec); err == nil {
			t.Errorf("%s: corrupted result accepted", name)
		}
	}
	warm := good
	warm.status.Shards.Computed, warm.status.Shards.Cached = 1, 3
	if err := checkService(phaseWarm, warm, ref, spec); err == nil {
		t.Error("warm resubmit that recomputed a shard accepted")
	}
}

func TestRecordedDigestMismatchFails(t *testing.T) {
	ref := reference{digest: "abc"}
	if _, err := checkRecorded(ref, "sweepd", defaultSeed, false, map[string]string{"sweepd": "abd"}); err == nil {
		t.Error("digest mismatch accepted")
	}
	if _, err := checkRecorded(ref, "sweepd", defaultSeed, false, map[string]string{"sweepd": "abc"}); err != nil {
		t.Errorf("matching digest rejected: %v", err)
	}
	if _, err := checkRecorded(ref, "sweepd", defaultSeed+1, false, map[string]string{"sweepd": "abd"}); err != nil {
		t.Errorf("other seed checked against the default seed's digest: %v", err)
	}
}

// The recorded digests cover every workload at the default seed.
func TestDigestsRecorded(t *testing.T) {
	rec, err := recordedDigests()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		if len(rec[w.name]) != 64 {
			t.Errorf("no recorded digest for %s", w.name)
		}
	}
}

func readBenchmarkJSON() ([]byte, error) {
	return os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
}
