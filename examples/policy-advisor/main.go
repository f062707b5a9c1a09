// Policy advisor: the paper's §6 future-work features made concrete —
// AI-predicted walltime estimation embedded into submission, with a
// what-if re-simulation that quantifies dynamic rescheduling and time
// reclamation, and an LLM comparison narrating the before/after.
//
// The experiment: replay a contended Frontier workload twice — once with
// the users' own (over-estimated) walltime requests and once with the
// predictor's tightened requests — and compare queue waits, backfill
// activity, and the timeout risk the predictor introduces.
//
//	go run ./examples/policy-advisor
package main

import (
	"context"
	"fmt"
	"log"
	"net/http/httptest"
	"strings"
	"time"

	"slurmsight/internal/analyze"
	"slurmsight/internal/cluster"
	"slurmsight/internal/core"
	"slurmsight/internal/llm"
	"slurmsight/internal/plot"
	"slurmsight/internal/predict"
	"slurmsight/internal/raster"
	"slurmsight/internal/sched"
	"slurmsight/internal/tracegen"
)

// simulate runs the requests and returns the run and the bundle its
// records stream into.
func simulate(reqs []tracegen.Request) (*sched.Result, *analyze.Bundle) {
	sim, err := sched.New(sched.DefaultConfig(cluster.Frontier()))
	if err != nil {
		log.Fatal(err)
	}
	res, err := sim.Run(reqs, sched.Options{})
	if err != nil {
		log.Fatal(err)
	}
	b := analyze.NewBundle(core.TimelineBucket)
	for r := range res.Records {
		b.Observe(r)
	}
	return res, b
}

// waitChart renders one schedule's Figure 4 wait scatter.
func waitChart(label string, b *analyze.Bundle) *plot.Chart {
	c, err := core.ChartFromBundle(core.FigWaitTimes, label, b, 0, 0)
	if err != nil {
		log.Fatal(err)
	}
	return c
}

func main() {
	log.SetFlags(0)
	start := time.Date(2024, 5, 1, 0, 0, 0, 0, time.UTC)
	profile := tracegen.FrontierProfile()
	profile.JobsPerDay = 320
	profile.Users = 150
	reqs, err := tracegen.Generate([]tracegen.Phase{{
		Profile: profile, Start: start, End: start.AddDate(0, 0, 45),
	}}, 19)
	if err != nil {
		log.Fatal(err)
	}

	// --- Baseline: the users' own requests ---
	baseRes, baseBundle := simulate(reqs)
	baseline := baseRes.Stats
	fmt.Printf("baseline:   %.1f%% utilization, mean wait %9s, %4d backfilled, %4d timeouts\n",
		100*baseline.Utilization(), baseline.MeanWait().Round(time.Second),
		baseline.Backfilled, baseline.JobsTimeout)

	// --- Offline evaluation of the predictor on the baseline trace ---
	p := predict.NewPredictor()
	baseJobs, _ := baseRes.Collect()
	ev, err := predict.Evaluate(baseJobs, p)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\npredictor replay over the baseline trace:\n")
	fmt.Printf("  covered %d of %d jobs (warmup excluded)\n", ev.Covered, ev.Jobs)
	fmt.Printf("  reclaimed %.0f of %.0f reclaimable node-hours (%.0f%%)\n",
		ev.ReclaimedNodeHours, ev.ReclaimableNodeHours, 100*ev.ReclaimedShare())
	fmt.Printf("  timeout risk %.2f%% of covered jobs\n", 100*ev.TimeoutRisk)

	// --- What-if: resubmit with predicted walltimes ---
	whatIf := make([]tracegen.Request, len(reqs))
	copy(whatIf, reqs)
	tightened := predict.ApplyToRequests(len(whatIf), predict.NewPredictor(),
		func(i int) (string, string, time.Duration, time.Duration) {
			r := &whatIf[i]
			return r.User, r.Class, r.Timelimit, r.TrueRuntime
		},
		func(i int, limit time.Duration) { whatIf[i].Timelimit = limit })
	fmt.Printf("\nwhat-if resubmission: %d of %d requests tightened\n", tightened, len(whatIf))

	predRes, predBundle := simulate(whatIf)
	predicted := predRes.Stats
	fmt.Printf("predicted:  %.1f%% utilization, mean wait %9s, %4d backfilled, %4d timeouts\n",
		100*predicted.Utilization(), predicted.MeanWait().Round(time.Second),
		predicted.Backfilled, predicted.JobsTimeout)

	meanBase := baseline.MeanWait()
	meanPred := predicted.MeanWait()
	if meanBase > 0 {
		fmt.Printf("\nqueue wait change: %s → %s (%+.1f%%)\n",
			meanBase.Round(time.Second), meanPred.Round(time.Second),
			100*(float64(meanPred)-float64(meanBase))/float64(meanBase))
	}
	fmt.Printf("timeout change: %d → %d (the price of prediction risk)\n",
		baseline.JobsTimeout, predicted.JobsTimeout)
	bfBase := analyze.SummarizeBackfill(baseBundle.Backfill.Result())
	bfPred := analyze.SummarizeBackfill(predBundle.Backfill.Result())
	fmt.Printf("median walltime-use ratio: %.0f%% → %.0f%%\n",
		100*bfBase.MedianUseRatio, 100*bfPred.MedianUseRatio)

	// --- LLM comparison of the two schedules' wait profiles ---
	analyst := httptest.NewServer(llm.NewServer("sk-advisor").Handler())
	defer analyst.Close()
	client := llm.NewClient(analyst.URL, "sk-advisor")

	chartA := waitChart("baseline requests", baseBundle)
	chartB := waitChart("predicted requests", predBundle)
	pngA, err := raster.PNG(chartA, 960, 540)
	if err != nil {
		log.Fatal(err)
	}
	pngB, err := raster.PNG(chartB, 960, 540)
	if err != nil {
		log.Fatal(err)
	}
	imgA, err := llm.EncodeImage("baseline", pngA, chartA)
	if err != nil {
		log.Fatal(err)
	}
	imgB, err := llm.EncodeImage("predicted", pngB, chartB)
	if err != nil {
		log.Fatal(err)
	}
	resp, err := client.Analyze(context.Background(), llm.ComparePrompt, imgA, imgB)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n== LLM comparison of the two schedules ==")
	text := resp.Text
	if i := strings.Index(text, "\n\nFirst chart:"); i > 0 {
		text = text[:i]
	}
	fmt.Println(text)
}
