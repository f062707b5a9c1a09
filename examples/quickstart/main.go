// Quickstart: the smallest end-to-end SlurmSight run. It synthesizes two
// weeks of Frontier-like workload, executes it through the scheduler
// simulator, stores the accounting records, and runs the static analysis
// workflow (obtain → curate → plots → dashboard), printing where every
// artifact landed.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"time"

	"slurmsight/internal/cluster"
	"slurmsight/internal/core"
	"slurmsight/internal/sacct"
	"slurmsight/internal/sched"
	"slurmsight/internal/tracegen"
)

func main() {
	log.SetFlags(0)
	start := time.Date(2024, 6, 1, 0, 0, 0, 0, time.UTC)
	end := start.AddDate(0, 0, 14)

	// 1. Synthesize a workload: two weeks of moderate Frontier traffic.
	profile := tracegen.FrontierProfile()
	profile.JobsPerDay = 80
	profile.Users = 50
	reqs, err := tracegen.Generate([]tracegen.Phase{{Profile: profile, Start: start, End: end}}, 42)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("workload: %d submissions across %d days\n", len(reqs), 14)

	// 2. Execute it on the simulated scheduler.
	sim, err := sched.New(sched.DefaultConfig(cluster.Frontier()))
	if err != nil {
		log.Fatal(err)
	}
	res, err := sim.Run(reqs, sched.Options{EmitSteps: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("schedule: %d jobs, %d steps, %.1f%% utilization, mean wait %s\n",
		res.Len(), res.StepRows(), 100*res.Stats.Utilization(),
		res.Stats.MeanWait().Round(time.Second))

	// 3. Ingest into the accounting store.
	store := sacct.NewStore()
	if err := store.Ingest(res); err != nil {
		log.Fatal(err)
	}

	// 4. Run the analysis workflow.
	outDir, err := os.MkdirTemp("", "slurmsight-quickstart-")
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
		Workers:     4,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\ncurated %d records (%d malformed dropped)\n",
		art.Records, art.Curation.Malformed)
	fmt.Println("artifacts:")
	for _, key := range core.FigureKeys() {
		fmt.Printf("  %-28s %s\n", key, art.Figures[key].HTMLPath)
	}
	fmt.Printf("  %-28s %s\n", "dashboard", art.DashboardPath)
	fmt.Printf("  %-28s %s\n", "dataflow graph (Figure 2)", art.DOTPath)
	fmt.Printf("\nkey numbers: %.1f steps/job, %.0f%% of jobs overestimate walltime, "+
		"%.1f%% backfilled\n",
		art.Summaries.StepJobRatio,
		100*art.Summaries.Backfill.OverestimateShare,
		100*art.Summaries.Backfill.BackfilledShare)
	fmt.Printf("\nview the dashboard:  go run ./cmd/dashboard -dir %s\n", outDir)
}
