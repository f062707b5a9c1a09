package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
	"time"

	"slurmsight/internal/obs"
)

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(values, n=4) for the same inputs.
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6}, [3]float64{1.25, 3.5, 5.75}},
		{[]float64{10, 20}, [3]float64{7.5, 15, 22.5}},
	} {
		if got := [3]float64{quantile(c.in, 0.25), quantile(c.in, 0.5), quantile(c.in, 0.75)}; got != c.want {
			t.Errorf("quartiles of %v = %v, want %v", c.in, got, c.want)
		}
	}
	if _, _, _, rel := spread([]float64{90, 100, 110, 100}); rel <= 0 || rel > 0.2 {
		t.Errorf("spread = %v, want (q3-q1)/median of a ±10%% sample", rel)
	}
}

func TestMedianAndTail(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i)
	}
	if label, v := tailPercentile(xs); label != "p99" || v < 988 || v > 990 {
		t.Errorf("tail of 1000 samples = %s %v, want p99 with ten samples beyond", label, v)
	}
	if label, v := tailPercentile(xs[:8]); label != "max" || v != 7 {
		t.Errorf("tail of 8 samples = %s %v, want the max", label, v)
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	spans := []obs.SpanData{
		{ID: 1, Name: "root", Start: at(0), End: at(200)},
		{ID: 2, ParentID: 1, Name: "loop", Start: at(0), End: at(100)},
		{ID: 3, ParentID: 2, Name: "a", Start: at(10), End: at(40)},
		{ID: 4, ParentID: 2, Name: "b", Start: at(30), End: at(60)},  // overlaps a: union is 10..60
		{ID: 5, ParentID: 2, Name: "a", Start: at(90), End: at(120)}, // runs past its parent: clipped at 100
		{ID: 6, ParentID: 3, Name: "leaf", Start: at(15), End: at(20)},
		{ID: 7, ParentID: 1, Name: "probe", Start: at(100), End: at(200)},
	}
	got := selfTimes(spans)
	check := func(phase, name string, count int, total, self time.Duration) {
		t.Helper()
		st := got[spanKey{phase, name}]
		if st == nil || st.Count != count || st.Total != total*time.Millisecond || st.Self != self*time.Millisecond {
			t.Errorf("%s/%s = %+v, want count %d total %dms self %dms", phase, name, st, count, total, self)
		}
	}
	check("loop", "loop", 1, 100, 40) // 100 − (10..60) − (90..100)
	check("loop", "a", 2, 60, 55)     // 30 − leaf 5, plus 30
	check("loop", "b", 1, 30, 30)
	check("loop", "leaf", 1, 5, 5)
	check("probe", "probe", 1, 100, 100)
	check("run", "root", 1, 200, 0)
}

func TestSameSeedSameInputs(t *testing.T) {
	sz := smokeSizes
	fx := &fixture{users: []string{"u1", "u2", "u3"}, end: sz.flowEnd}
	keys, filterAt, figAt := readKeys(&sz, fx)
	sched := func(seed int64) uint64 {
		return scheduleDigest(keys, readSchedule(&sz, seed, len(keys), filterAt, figAt))
	}
	if sched(7) != sched(7) {
		t.Error("serve-read schedule differs between two builds from one seed")
	}
	if sched(7) == sched(8) {
		t.Error("serve-read schedule ignores the seed")
	}
	batches := func(seed int64) uint64 { return digest(encodeBatches(liveRecords(&sz, seed, fx, sz.liveCycles))...) }
	if batches(7) != batches(7) || batches(7) == batches(8) {
		t.Error("serve-live batches are not a function of the seed alone")
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with the tables in
// spec.go and inside the limits the acceptance driver enforces.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []metricDef   `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Workloads, workloads) {
		t.Errorf("workloads differ from spec.go:\n got %+v\nwant %+v", got.Workloads, workloads)
	}
	if !reflect.DeepEqual(got.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from spec.go:\n got %+v\nwant %+v", got.EndToEnd, endToEnd)
	}
	if want := perLayer(); !reflect.DeepEqual(got.PerLayer, want) {
		want, _ := json.Marshal(want)
		t.Errorf("per_layer differs from spec.go; want\n%s", want)
	}
	if !reflect.DeepEqual(got.Paths, []string{"loopbench"}) || got.RunSeconds < 1 || got.RunSeconds > 60 {
		t.Errorf("paths %v run_seconds %d", got.Paths, got.RunSeconds)
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		use(w.Name)
		if len(w.Why) > 200 {
			t.Errorf("why of %s has %d characters", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, d := range endToEnd {
		use(d.Name)
		if !unit.MatchString(d.Unit) || d.Bound <= 0 || d.Bound > 0.10 {
			t.Errorf("%s: unit %q bound %v, want a bound of at most 10 %%", d.Name, d.Unit, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("end_to_end needs setup_s in s, lower is better")
	}
	if n := len(perLayer()); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	for _, d := range perLayer() {
		use(d.Name)
		if !unit.MatchString(d.Unit) || d.Bound != 0 {
			t.Errorf("%s: unit %q bound %v", d.Name, d.Unit, d.Bound)
		}
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes", len(raw))
	}
}

// TestSmoke runs every workload on tiny fixtures: each must pass its
// output checks and print the contract's shape, and with every
// reference corrupted each check must fail — a check that cannot fail
// checks nothing.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			sz := smokeSizes
			res, err := run(runConfig{workload: w.Name, seed: 5, outDir: t.TempDir()}, &sz)
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 || res.Attempted < 2 {
				t.Fatalf("%d failed of %d attempted: %s", res.Failed, res.Attempted, res.FirstFail)
			}
			b, err := json.Marshal(res.contractLine())
			if err != nil {
				t.Fatal(err)
			}
			var line map[string]json.RawMessage
			if err := json.Unmarshal(b, &line); err != nil {
				t.Fatal(err)
			}
			if len(line) != 4 || line["correct"] == nil || line["attempted"] == nil || line["failed"] == nil || line["metrics"] == nil {
				t.Fatalf("result line keys: %s", b)
			}
			var metrics map[string]value
			if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
				t.Fatal(err)
			}
			if len(metrics) != len(endToEnd) {
				t.Errorf("%d metrics, want the %d end-to-end ones", len(metrics), len(endToEnd))
			}
			for _, d := range endToEnd {
				if m, ok := metrics[d.Name]; !ok || m.Unit != d.Unit || !(m.Value > 0) {
					t.Errorf("%s = %+v, want a positive value in %s", d.Name, m, d.Unit)
				}
			}
			for _, d := range loopTimings {
				if m, ok := res.Timing[d.Name]; !ok || m.Unit != d.Unit || !(m.Value > 0) {
					t.Errorf("%s = %+v, want a positive value in %s", d.Name, m, d.Unit)
				}
			}

			bad, err := run(runConfig{workload: w.Name, seed: 5, outDir: t.TempDir(), tamper: true}, &sz)
			if err != nil {
				t.Fatal(err)
			}
			if bad.Failed == 0 || bad.FailFrac <= 0 || bad.contractLine().Correct {
				t.Errorf("corrupted references went unnoticed: %d failed of %d", bad.Failed, bad.Attempted)
			}
			// Every key of the read mix has a reference of its own, the
			// misses too, so every request must fail, not only the hot ones.
			if w.Name == "serve-read" && bad.Failed != bad.Attempted {
				t.Errorf("serve-read: %d of %d requests failed against corrupted references, want all", bad.Failed, bad.Attempted)
			}
		})
	}
}

func TestSmokeTraced(t *testing.T) {
	sz := smokeSizes
	out := t.TempDir()
	res, err := run(runConfig{workload: "serve-live", seed: 5, traced: true, outDir: out}, &sz)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 {
		t.Fatalf("%d failed: %s", res.Failed, res.FirstFail)
	}
	metrics := res.contractLine().Metrics
	for _, d := range perLayer() {
		if m, ok := metrics[d.Name]; !ok || m.Unit != d.Unit {
			t.Errorf("traced run lacks %s in %s", d.Name, d.Unit)
		}
	}
	if len(metrics) != len(perLayer()) {
		t.Errorf("%d metrics, want the %d per-layer ones", len(metrics), len(perLayer()))
	}
	if got := metrics["serve.generations_per_batch"].Value; got < 1 {
		t.Errorf("serve.generations_per_batch = %v, want at least one bump per batch", got)
	}
	raw, err := os.ReadFile(filepath.Join(out, "trace-serve-live-seed5.json"))
	if err != nil {
		t.Fatal(err)
	}
	var trace any
	if err := json.Unmarshal(raw, &trace); err != nil {
		t.Errorf("Chrome trace is not JSON: %v", err)
	}
}
