// Command schedflow runs the hybrid analysis workflow — the Go
// counterpart of the paper's Swift/T invocation:
//
//	swift-t -n N workflow.swift --date_spec=<spec> --dates=<dates> \
//	  --cache=<dir> --data=<dir>
//
// becomes
//
//	schedflow -n N -trace frontier.trace -date-spec months \
//	  -dates 2024-01:2024-12 -cache /tmp/ss-cache -data out/
//
// Add -ai -llm-url http://localhost:9090 -llm-key sk-local-dev to run the
// LLM insight and comparison stages, and -serve :8080 to serve the
// dashboard when the run finishes.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"strings"
	"time"

	"slurmsight/internal/core"
	"slurmsight/internal/dashboard"
	"slurmsight/internal/dataflow"
	"slurmsight/internal/llm"
	"slurmsight/internal/obs"
	"slurmsight/internal/sacct"
	srvpkg "slurmsight/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("schedflow: ")

	var (
		workers = flag.Int("n", 4, "workflow concurrency (swift-t -n)")
		ingestW = flag.Int("ingest-workers", 0,
			"chunk decoders per period file (0 = GOMAXPROCS); outputs are byte-identical at every width")
		trace    = flag.String("trace", "trace.txt", "accounting dump to analyze")
		system   = flag.String("system", "frontier", "system name for chart titles")
		dateSpec = flag.String("date-spec", "months", "retrieval granularity: months or years")
		dates    = flag.String("dates", "", "window as START:END (2024-01:2024-12 or 2024-01-01:2024-12-31)")
		cacheDir = flag.String("cache", "", "fast cache directory (default <data>/cache)")
		dataDir  = flag.String("data", "out", "permanent artifact directory")
		useCache = flag.Bool("use-cache", false, "reuse previously fetched period files")
		topUsers = flag.Int("top-users", 50, "users shown in the states figure")
		enableAI = flag.Bool("ai", false, "run the LLM insight/compare subworkflow")
		llmURL   = flag.String("llm-url", "", "LLM endpoint base URL (required with -ai)")
		llmKey   = flag.String("llm-key", "", "LLM API key")

		taskAttempts = flag.Int("task-attempts", 1, "attempts per workflow task (1 = no retries)")
		taskTimeout  = flag.Duration("task-timeout", 0, "per-attempt task timeout (0 = none)")
		taskBackoff  = flag.Duration("task-backoff", 250*time.Millisecond, "initial delay between task retries")
		continueOn   = flag.Bool("continue-on-error", false,
			"keep independent branches running past a failed task and report every failure")
		llmRetries = flag.Int("llm-retries", -1, "LLM client retries (-1 = default 3, 0 = none)")
		llmBackoff = flag.Duration("llm-backoff", 0, "initial LLM retry backoff (0 = client default)")
		serve      = flag.String("serve", "", "serve the dashboard at this address after the run")
		extended   = flag.Bool("extended", false, "add operator figures (load timeline, queue depth)")
		nodes      = flag.Int("nodes", 0, "system node capacity for utilization summaries")
		ask        = flag.String("ask", "", "ask the conversational agent a question after the run")
		traceOut   = flag.String("trace-out", "",
			"write a Chrome trace-event JSON of the run here (load in Perfetto or chrome://tracing)")
	)
	flag.Parse()

	gran, err := sacct.ParseGranularity(*dateSpec)
	if err != nil {
		log.Fatal(err)
	}
	start, end, err := parseDates(*dates, gran)
	if err != nil {
		log.Fatal(err)
	}

	// A columnar trace reloads in O(open + footer) and defers shard
	// decodes to the workflow's first scan.
	store, malformed, err := sacct.OpenFile(*trace)
	if err != nil {
		log.Fatal(err)
	}
	defer store.Close()
	if malformed > 0 {
		log.Printf("warning: %d malformed rows dropped while loading %s", malformed, *trace)
	}
	log.Printf("loaded %d records (%v)", store.Len(), monthsRange(store))
	resolvedIngest := *ingestW
	if resolvedIngest == 0 {
		resolvedIngest = runtime.GOMAXPROCS(0)
	}
	log.Printf("ingest workers: %d", resolvedIngest)

	cfg := core.Config{
		SystemName:      *system,
		Store:           store,
		OutputDir:       *dataDir,
		CacheDir:        *cacheDir,
		Granularity:     gran,
		Start:           start,
		End:             end,
		UseCache:        *useCache,
		Workers:         *workers,
		IngestWorkers:   *ingestW,
		TopUsers:        *topUsers,
		EnableAI:        *enableAI,
		ExtendedFigures: *extended,
		SystemNodes:     *nodes,
		TaskAttempts:    *taskAttempts,
		TaskTimeout:     *taskTimeout,
		TaskBackoff:     *taskBackoff,
		ContinueOnError: *continueOn,
	}
	var metrics *obs.Registry
	if *traceOut != "" {
		cfg.Tracer = obs.NewTracer()
		metrics = obs.NewRegistry()
		cfg.Metrics = metrics
	}
	if *enableAI {
		if *llmURL == "" {
			log.Fatal("-ai requires -llm-url")
		}
		client := llm.NewClient(*llmURL, *llmKey)
		client.MaxRetries = *llmRetries
		if *llmBackoff > 0 {
			client.Backoff = *llmBackoff
		}
		client.Metrics = metrics
		cfg.LLM = client
	}

	t0 := time.Now()
	art, err := core.Run(context.Background(), cfg)
	var runErr *dataflow.RunError
	if errors.As(err, &runErr) {
		for _, e := range runErr.Errs {
			log.Printf("warning: %v", e)
		}
		log.Printf("warning: %d stages failed; continuing with the surviving branches", len(runErr.Errs))
	} else if err != nil {
		log.Fatal(err)
	}
	ok, failed, skipped, retried := art.Trace.Counts()
	log.Printf("workflow complete in %s: %d records curated (%d malformed dropped), "+
		"%d figures, max stage concurrency %d",
		time.Since(t0).Round(time.Millisecond), art.Records,
		art.Curation.Malformed, len(art.Figures), art.Trace.MaxConcurrency)
	log.Printf("stages: %d ok, %d failed, %d skipped, %d retried (outcome graph: %s)",
		ok, failed, skipped, retried, art.StatusDOTPath)
	log.Printf("dashboard: %s", art.DashboardPath)
	printSummaries(art)

	if *traceOut != "" {
		if err := writeChromeTrace(cfg.Tracer, *traceOut); err != nil {
			log.Fatal(err)
		}
		cfg.Tracer.WriteSummary(os.Stderr)
		log.Printf("run trace: %s (Chrome trace-event JSON; machine-readable task trace: %s)",
			*traceOut, art.TraceJSONPath)
	}

	if *ask != "" {
		agent := llm.NewAgent(art.Facts(*system))
		reply := agent.Ask(*ask, "")
		fmt.Fprintf(os.Stderr, "\n== agent [%s] ==\n%s\n", reply.Topic, reply.Text)
	}

	if *serve != "" {
		srv, err := dashboard.New(*dataDir)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("serving dashboard on %s", *serve)
		err = srvpkg.Serve(context.Background(), *serve, "schedflow", metrics, srv.Handler(),
			250*time.Millisecond, 5*time.Second, log.Printf)
		if err != nil {
			log.Fatal(err)
		}
	}
}

// writeChromeTrace exports the run's spans in Chrome trace-event format.
func writeChromeTrace(tr *obs.Tracer, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// parseDates accepts 2024-01:2024-12 (month granularity) or full dates.
func parseDates(spec string, gran sacct.Granularity) (time.Time, time.Time, error) {
	if spec == "" {
		return time.Time{}, time.Time{}, fmt.Errorf("-dates is required (START:END)")
	}
	parts := strings.SplitN(spec, ":", 2)
	if len(parts) != 2 {
		return time.Time{}, time.Time{}, fmt.Errorf("bad -dates %q, want START:END", spec)
	}
	parse := func(s string, isEnd bool) (time.Time, error) {
		if t, err := time.Parse("2006-01-02", s); err == nil {
			return t, nil
		}
		if m, err := sacct.ParseMonth(s); err == nil {
			if isEnd {
				return m.Next().Start(), nil // END month is inclusive
			}
			return m.Start(), nil
		}
		if t, err := time.Parse("2006", s); err == nil {
			if isEnd {
				return t.AddDate(1, 0, 0), nil
			}
			return t, nil
		}
		return time.Time{}, fmt.Errorf("unparseable date %q", s)
	}
	start, err := parse(parts[0], false)
	if err != nil {
		return time.Time{}, time.Time{}, err
	}
	end, err := parse(parts[1], true)
	if err != nil {
		return time.Time{}, time.Time{}, err
	}
	if !start.Before(end) {
		return time.Time{}, time.Time{}, fmt.Errorf("-dates window is empty")
	}
	return start, end, nil
}

func monthsRange(store *sacct.Store) string {
	months := store.Months()
	if len(months) == 0 {
		return "empty"
	}
	return fmt.Sprintf("%s … %s", months[0], months[len(months)-1])
}

func printSummaries(art *core.Artifacts) {
	s := art.Summaries
	w := os.Stderr
	fmt.Fprintf(w, "\n== figure summaries ==\n")
	for _, v := range s.Volume {
		fmt.Fprintf(w, "fig1  %d: %d jobs, %d steps\n", v.Year, v.Jobs, v.Steps)
	}
	fmt.Fprintf(w, "fig1  steps per job: %.1f\n", s.StepJobRatio)
	fmt.Fprintf(w, "fig3  median %0.f nodes / %s; small-short %.0f%%, large-long %.1f%%\n",
		s.Scale.MedianNodes, secs(s.Scale.MedianElapsedSec),
		100*s.Scale.SmallShortShare, 100*s.Scale.LargeLongShare)
	fmt.Fprintf(w, "fig4  median wait %s, p90 %s, long-tail(>100ks) %.1f%%\n",
		secs(s.Waits.P50), secs(s.Waits.P90), 100*s.Waits.LongWaits)
	fmt.Fprintf(w, "fig5  %d users; mean failed share %.1f%%, top-decile owns %.0f%% of failures\n",
		s.Users.Users, 100*s.Users.MeanFailedShare, 100*s.Users.TopDecileFailures)
	fmt.Fprintf(w, "fig6  %.0f%% of jobs use <75%% of request; median use %.0f%%; "+
		"%.1f%% backfilled; reclaimable %.0f node-hours\n",
		100*s.Backfill.OverestimateShare, 100*s.Backfill.MedianUseRatio,
		100*s.Backfill.BackfilledShare, s.Reclaimable)
}

func secs(v float64) string {
	return (time.Duration(v) * time.Second).Round(time.Second).String()
}
