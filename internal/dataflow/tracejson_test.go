package dataflow

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"slurmsight/internal/obs"
)

// traceFixture runs a small graph with one retried success, one terminal
// failure, and one skipped dependent, under two attempts per task and
// ContinueOnError.
func traceFixture(t *testing.T, ex *Executor) *Trace {
	t.Helper()
	g := NewGraph()
	ex.DefaultPolicy = Policy{Attempts: 2, ContinueOnError: true}
	tries := 0
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(g.Add(Task{Name: "flaky", Writes: []string{"f"},
		Run: func(context.Context) error {
			tries++
			if tries == 1 {
				return errors.New("transient")
			}
			return nil
		}}))
	must(g.Add(Task{Name: "doomed", Writes: []string{"d"},
		Run: func(context.Context) error { return errors.New("terminal") }}))
	must(g.Add(Task{Name: "orphan", Reads: []string{"d"},
		Run: func(context.Context) error { return nil }}))

	trace, err := ex.Run(context.Background(), g)
	var runErr *RunError
	if !errors.As(err, &runErr) {
		t.Fatalf("err = %v, want *RunError", err)
	}
	return trace
}

// TestTraceJSONSchema pins the exported field names and the per-attempt
// records — the workflow-trace.json artifact contract.
func TestTraceJSONSchema(t *testing.T) {
	trace := traceFixture(t, &Executor{Workers: 2})
	data, err := trace.JSON()
	if err != nil {
		t.Fatal(err)
	}

	// Decode generically: the test must notice a renamed field.
	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"tasks", "max_concurrency", "ok", "failed", "skipped", "retried"} {
		if _, present := doc[key]; !present {
			t.Errorf("trace JSON missing top-level %q", key)
		}
	}
	if doc["ok"].(float64) != 1 || doc["failed"].(float64) != 1 ||
		doc["skipped"].(float64) != 1 || doc["retried"].(float64) != 2 {
		t.Errorf("counts = ok %v failed %v skipped %v retried %v",
			doc["ok"], doc["failed"], doc["skipped"], doc["retried"])
	}

	byName := map[string]map[string]any{}
	for _, raw := range doc["tasks"].([]any) {
		task := raw.(map[string]any)
		byName[task["name"].(string)] = task
	}
	flaky := byName["flaky"]
	if flaky["outcome"] != "ok" {
		t.Errorf("flaky outcome = %v", flaky["outcome"])
	}
	attempts := flaky["attempts"].([]any)
	if len(attempts) != 2 {
		t.Fatalf("flaky attempts = %d, want 2", len(attempts))
	}
	first := attempts[0].(map[string]any)
	if first["ok"] != false || first["error"] != "transient" {
		t.Errorf("first attempt = %v", first)
	}
	if _, present := first["duration_ms"]; !present {
		t.Error("attempt missing duration_ms")
	}
	if _, present := first["start"]; !present {
		t.Error("attempt missing start")
	}
	doomed := byName["doomed"]
	if doomed["outcome"] != "failed" || !strings.Contains(doomed["error"].(string), "terminal") {
		t.Errorf("doomed = %v", doomed)
	}
	orphan := byName["orphan"]
	if orphan["outcome"] != "skipped" {
		t.Errorf("orphan outcome = %v", orphan["outcome"])
	}
	if _, present := orphan["start"]; present {
		t.Error("skipped task should omit start")
	}
	if _, present := orphan["attempts"]; present {
		t.Error("skipped task should omit attempts")
	}
}

// TestExecutorTracing runs the same graph with instrumentation on: the
// tracer must carry the run/task/attempt span hierarchy and the retry
// event, the registry the attempt and outcome counters.
func TestExecutorTracing(t *testing.T) {
	tr := obs.NewTracer()
	reg := obs.NewRegistry()
	trace := traceFixture(t, &Executor{Workers: 2, Tracer: tr, Metrics: reg})

	snap := tr.Snapshot()
	byName := map[string][]obs.SpanData{}
	for _, d := range snap {
		byName[d.Name] = append(byName[d.Name], d)
	}
	if len(byName["dataflow-run"]) != 1 {
		t.Fatalf("run spans = %d", len(byName["dataflow-run"]))
	}
	run := byName["dataflow-run"][0]
	if !run.Ended {
		t.Error("run span not ended")
	}
	if got := run.Attr("outcomes"); !strings.Contains(got, "1 ok, 1 failed, 1 skipped") {
		t.Errorf("run outcomes attr = %q", got)
	}
	flaky := byName["flaky"]
	if len(flaky) != 1 || flaky[0].ParentID != run.ID {
		t.Fatalf("flaky span = %+v", flaky)
	}
	if got := flaky[0].Attr("outcome"); got != "ok after 2 attempts" {
		t.Errorf("flaky outcome attr = %q", got)
	}
	if len(flaky[0].Events) != 1 || !strings.Contains(flaky[0].Events[0].Msg, "retry 1") {
		t.Errorf("flaky events = %+v", flaky[0].Events)
	}
	// Attempt spans nest under their task: flaky 2, doomed 2.
	attempts := 0
	for name, spans := range byName {
		if strings.HasPrefix(name, "attempt ") {
			attempts += len(spans)
		}
	}
	if attempts != 4 {
		t.Errorf("attempt spans = %d, want 4", attempts)
	}
	// Skipped tasks get no span (they never ran).
	if len(byName["orphan"]) != 0 {
		t.Errorf("orphan has %d spans, want 0", len(byName["orphan"]))
	}

	counts := map[string]int64{
		"dataflow_attempts_total":      4,
		"dataflow_retries_total":       2,
		"dataflow_tasks_total":         int64(len(trace.Tasks)),
		"dataflow_tasks_ok_total":      1,
		"dataflow_tasks_failed_total":  1,
		"dataflow_tasks_skipped_total": 1,
	}
	for name, want := range counts {
		if got := reg.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if got := reg.Gauge("dataflow_running_tasks").Value(); got != 0 {
		t.Errorf("running gauge = %d after run, want 0", got)
	}
	if got := reg.Histogram("dataflow_task_seconds", obs.LatencyBuckets).Count(); got != 2 {
		t.Errorf("task latency observations = %d, want 2", got)
	}
}

// TestDOTTraceCarriesDurations pins the §satellite contract that the
// status DOT and the tracer agree: every executed task label carries a
// wall time.
func TestDOTTraceCarriesDurations(t *testing.T) {
	g := NewGraph()
	g.Add(Task{Name: "quick", Writes: []string{"q"},
		Run: func(context.Context) error { return nil }})
	trace, err := (&Executor{Workers: 1}).Run(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	dot := g.DOTTrace(trace)
	if !strings.Contains(dot, `ok (`) {
		t.Errorf("DOTTrace label missing duration:\n%s", dot)
	}
}
