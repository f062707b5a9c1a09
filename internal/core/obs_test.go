package core

import (
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"slurmsight/internal/obs"
)

// TestWorkflowObservability runs the static workflow with tracing and
// metrics on and checks the full observability surface: stage spans for
// every layer, the workflow-trace.json artifact, a Perfetto-loadable
// Chrome trace, and the curate/analyze/dataflow metric families.
func TestWorkflowObservability(t *testing.T) {
	cfg := baseConfig(t)
	cfg.Tracer = obs.NewTracer()
	cfg.Metrics = obs.NewRegistry()

	art, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}

	// --- Spans: one root, one per task, stage attributes on the bodies.
	spans := cfg.Tracer.Snapshot()
	byName := map[string]obs.SpanData{}
	stages := map[string]int{}
	for _, d := range spans {
		byName[d.Name] = d
		if st := d.Attr("stage"); st != "" {
			stages[st]++
		}
	}
	for _, name := range []string{"dataflow-run", "obtain-data", "combine", "dashboard", "report"} {
		d, ok := byName[name]
		if !ok {
			t.Fatalf("span %q missing (have %d spans)", name, len(spans))
		}
		if !d.Ended {
			t.Errorf("span %q never ended", name)
		}
	}
	for _, stage := range []string{"obtain", "curate", "analyze", "render", "emit"} {
		if stages[stage] == 0 {
			t.Errorf("no span carries stage=%s", stage)
		}
	}
	var curateSpan *obs.SpanData
	for i := range spans {
		if strings.HasPrefix(spans[i].Name, "curate-") {
			curateSpan = &spans[i]
			break
		}
	}
	if curateSpan == nil {
		t.Fatal("no curate-<period> span")
	}
	for _, key := range []string{"period", "rows_kept", "outcome"} {
		if curateSpan.Attr(key) == "" {
			t.Errorf("curate span missing %s attribute: %+v", key, curateSpan.Attrs)
		}
	}

	// --- workflow-trace.json: present, parseable, consistent with the run.
	data, err := os.ReadFile(art.TraceJSONPath)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Tasks []struct {
			Name    string `json:"name"`
			Outcome string `json:"outcome"`
		} `json:"tasks"`
		OK int `json:"ok"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("workflow-trace.json: %v", err)
	}
	if len(doc.Tasks) != len(art.Trace.Tasks) || doc.OK != len(doc.Tasks) {
		t.Errorf("trace JSON has %d tasks (%d ok), run had %d",
			len(doc.Tasks), doc.OK, len(art.Trace.Tasks))
	}

	// --- Chrome trace: every task span exported as a complete event.
	var chrome strings.Builder
	if err := cfg.Tracer.WriteChromeTrace(&chrome); err != nil {
		t.Fatal(err)
	}
	var events struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(chrome.String()), &events); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	names := map[string]bool{}
	for _, ev := range events.TraceEvents {
		names[ev.Name] = true
	}
	for _, want := range []string{"dataflow-run", "combine", "plot-" + FigWaitTimes} {
		if !names[want] {
			t.Errorf("chrome trace missing event %q", want)
		}
	}

	// --- Metrics: curate row accounting matches the curation report, the
	// dataflow counters match the trace, and the text exposition carries
	// the families /metrics serves.
	reads := cfg.Metrics.Counter("curate_rows_read_total").Value()
	kept := cfg.Metrics.Counter("curate_rows_kept_total").Value()
	if int(kept) != art.Curation.Kept || reads < kept {
		t.Errorf("curate metrics read=%d kept=%d, report kept=%d",
			reads, kept, art.Curation.Kept)
	}
	if got := cfg.Metrics.Counter("analyze_records_observed_total").Value(); int(got) != art.Records {
		t.Errorf("analyze_records_observed_total = %d, want %d", got, art.Records)
	}
	// combine is the one fold of a run, whatever the periods and chunks.
	if got := cfg.Metrics.Histogram("analyze_merge_seconds", obs.LatencyBuckets).Count(); got != 1 {
		t.Errorf("analyze_merge_seconds counts %d folds, want 1", got)
	}
	if got := cfg.Metrics.Counter("dataflow_tasks_ok_total").Value(); int(got) != len(art.Trace.Tasks) {
		t.Errorf("dataflow_tasks_ok_total = %d, want %d", got, len(art.Trace.Tasks))
	}
	var text strings.Builder
	cfg.Metrics.WriteText(&text)
	for _, family := range []string{
		"curate_rows_read_total", "analyze_merge_seconds", "dataflow_task_seconds",
	} {
		if !strings.Contains(text.String(), family) {
			t.Errorf("metrics exposition missing %s", family)
		}
	}
}

// TestWorkflowTraceJSONWithoutTracer checks the artifact still appears on
// an uninstrumented run — the trace JSON comes from the dataflow trace,
// not the tracer, so it is always available.
func TestWorkflowTraceJSONWithoutTracer(t *testing.T) {
	cfg := baseConfig(t)
	art, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(art.TraceJSONPath)
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid(data) {
		t.Error("workflow-trace.json is not valid JSON")
	}
}
