// Frontier analysis: the paper's §4.1–4.2 study on a synthetic Frontier
// trace with real contention. It runs the full hybrid workflow — static
// figures 1 and 3–6 plus the LLM insight and month-over-month comparison
// stages against an in-process analyst endpoint — and prints the
// quantitative reading of each figure next to excerpts of the generated
// interpretations.
//
//	go run ./examples/frontier-analysis
package main

import (
	"context"
	"fmt"
	"log"
	"net/http/httptest"
	"os"
	"strings"
	"time"

	"slurmsight/internal/cluster"
	"slurmsight/internal/core"
	"slurmsight/internal/llm"
	"slurmsight/internal/sacct"
	"slurmsight/internal/sched"
	"slurmsight/internal/tracegen"
)

func main() {
	log.SetFlags(0)
	start := time.Date(2024, 2, 1, 0, 0, 0, 0, time.UTC)
	end := start.AddDate(0, 0, 60)

	// A contended workload: enough large jobs that queues form and the
	// backfill scheduler earns its keep.
	profile := tracegen.FrontierProfile()
	profile.JobsPerDay = 300
	profile.Users = 220
	reqs, err := tracegen.Generate([]tracegen.Phase{{Profile: profile, Start: start, End: end}}, 7)
	if err != nil {
		log.Fatal(err)
	}
	sim, err := sched.New(sched.DefaultConfig(cluster.Frontier()))
	if err != nil {
		log.Fatal(err)
	}
	res, err := sim.Run(reqs, sched.Options{EmitSteps: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("simulated %d jobs / %d steps over %d days: %.1f%% utilization, "+
		"%d backfilled, mean wait %s, max wait %s\n\n",
		res.Len(), res.StepRows(), 60, 100*res.Stats.Utilization(),
		res.Stats.Backfilled, res.Stats.MeanWait().Round(time.Second),
		res.Stats.MaxWait.Round(time.Minute))

	store := sacct.NewStore()
	if err := store.Ingest(res); err != nil {
		log.Fatal(err)
	}

	// The AI subworkflow talks to an in-process analyst endpoint.
	analyst := httptest.NewServer(llm.NewServer("sk-example").Handler())
	defer analyst.Close()

	outDir, err := os.MkdirTemp("", "slurmsight-frontier-")
	if err != nil {
		log.Fatal(err)
	}
	art, err := core.Run(context.Background(), core.Config{
		SystemName:  "frontier",
		Store:       store,
		OutputDir:   outDir,
		Granularity: sacct.Monthly,
		Start:       start,
		End:         end,
		Workers:     6,
		EnableAI:    true,
		LLM:         llm.NewClient(analyst.URL, "sk-example"),
	})
	if err != nil {
		log.Fatal(err)
	}

	s := art.Summaries
	fmt.Println("== Figure 1: job and job-step volume ==")
	for _, v := range s.Volume {
		fmt.Printf("  %d: %d jobs, %d steps\n", v.Year, v.Jobs, v.Steps)
	}
	fmt.Printf("  steps per job: %.1f (paper: ~14x, steps dominate)\n\n", s.StepJobRatio)

	fmt.Println("== Figure 3: allocated nodes vs elapsed time ==")
	fmt.Printf("  median %.0f nodes / %.0f min; %.0f%% small-short, %.1f%% large-long\n\n",
		s.Scale.MedianNodes, s.Scale.MedianElapsedSec/60,
		100*s.Scale.SmallShortShare, 100*s.Scale.LargeLongShare)

	fmt.Println("== Figure 4: queue waits by final state ==")
	fmt.Printf("  p50 %s · p90 %s · p99 %s · long-tail(>100ks) %.2f%%\n\n",
		dur(s.Waits.P50), dur(s.Waits.P90), dur(s.Waits.P99), 100*s.Waits.LongWaits)

	fmt.Println("== Figure 5: end states per user ==")
	fmt.Printf("  %d users · mean failed share %.1f%% · top decile owns %.0f%% of failures\n\n",
		s.Users.Users, 100*s.Users.MeanFailedShare, 100*s.Users.TopDecileFailures)

	fmt.Println("== Figure 6: requested vs actual walltime ==")
	fmt.Printf("  %.0f%% of jobs use <75%% of request · median use ratio %.0f%% · "+
		"%.1f%% backfilled · backfilled median %s vs regular %s · "+
		"%.0f reclaimable node-hours\n\n",
		100*s.Backfill.OverestimateShare, 100*s.Backfill.MedianUseRatio,
		100*s.Backfill.BackfilledShare,
		dur(s.Backfill.MedianActualBackfilled), dur(s.Backfill.MedianActualRegular),
		s.Reclaimable)

	fmt.Println("== Conversational agent (§6 future work) ==")
	agent := llm.NewAgent(art.Facts("frontier"))
	for _, q := range []string{"why are queue waits long?", "what should we tune first?"} {
		reply := agent.Ask(q, "")
		answer := reply.Text
		if lines := strings.SplitN(answer, "\n", 3); len(lines) > 1 {
			answer = strings.Join(lines[:2], " ")
		} else {
			answer = firstSentences(answer, 2)
		}
		fmt.Printf("  Q: %s\n  A: %s\n\n", q, answer)
	}

	fmt.Println("== LLM interpretations (§4.2) ==")
	for _, key := range []string{core.FigWaitTimes, core.FigBackfill} {
		excerpt(art.Figures[key].InsightPath)
	}
	excerpt(art.ComparePath)

	fmt.Printf("artifacts in %s (serve with: go run ./cmd/dashboard -dir %s)\n", outDir, outDir)
}

func dur(seconds float64) string {
	return (time.Duration(seconds) * time.Second).Round(time.Second).String()
}

// firstSentences truncates text after n sentences.
func firstSentences(text string, n int) string {
	count := 0
	for i, r := range text {
		if r == '.' || r == '\n' {
			count++
			if count >= n {
				return text[:i+1]
			}
		}
	}
	return text
}

// excerpt prints the first sentences of a generated analysis.
func excerpt(path string) {
	data, err := os.ReadFile(path)
	if err != nil {
		log.Fatal(err)
	}
	text := string(data)
	if i := strings.Index(text, "## Statistics"); i > 0 {
		text = text[:i]
	}
	lines := strings.Split(strings.TrimSpace(text), "\n")
	body := lines[len(lines)-1]
	if len(body) > 400 {
		body = body[:400] + "…"
	}
	fmt.Printf("  [%s]\n  %s\n\n", lines[0], body)
}
