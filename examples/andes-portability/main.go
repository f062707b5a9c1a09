// Andes portability: the paper's §4.3 study. The same workflow runs
// without modification against two very different systems — exascale
// GPU-centric Frontier and the throughput-oriented CPU cluster Andes —
// and the cross-system comparison reproduces the contrasts of Figures 7–9:
// Andes concentrates small short jobs, fails less and more uniformly, and
// over-estimates walltime more tightly.
//
//	go run ./examples/andes-portability
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"slurmsight/internal/analyze"
	"slurmsight/internal/cluster"
	"slurmsight/internal/core"
	"slurmsight/internal/sacct"
	"slurmsight/internal/sched"
	"slurmsight/internal/tracegen"
)

// runSystem executes one system's trace and workflow, returning the
// bundle its job records collect into.
func runSystem(name string, sys *cluster.System, profile tracegen.Profile,
	start, end time.Time, seed int64, outRoot string) *analyze.Bundle {

	reqs, err := tracegen.Generate([]tracegen.Phase{{Profile: profile, Start: start, End: end}}, seed)
	if err != nil {
		log.Fatal(err)
	}
	sim, err := sched.New(sched.DefaultConfig(sys))
	if err != nil {
		log.Fatal(err)
	}
	res, err := sim.Run(reqs, sched.Options{EmitSteps: true})
	if err != nil {
		log.Fatal(err)
	}
	store := sacct.NewStore()
	if err := store.Ingest(res); err != nil {
		log.Fatal(err)
	}

	// The identical workflow configuration runs on both systems — the
	// paper's portability claim ("applied the same workflow without
	// modification").
	art, err := core.Run(context.Background(), core.Config{
		SystemName:  name,
		Store:       store,
		OutputDir:   filepath.Join(outRoot, name),
		Granularity: sacct.Monthly,
		Start:       start,
		End:         end,
		Workers:     6,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: %d jobs / %d records analysed, dashboard at %s\n",
		name, art.Jobs, art.Records, art.DashboardPath)

	b, err := analyze.Collect(store.Scan(sacct.Query{}), core.TimelineBucket)
	if err != nil {
		log.Fatal(err)
	}
	return b
}

func main() {
	log.SetFlags(0)
	start := time.Date(2024, 4, 1, 0, 0, 0, 0, time.UTC)
	end := start.AddDate(0, 0, 45)
	outRoot, err := os.MkdirTemp("", "slurmsight-portability-")
	if err != nil {
		log.Fatal(err)
	}

	fp := tracegen.FrontierProfile()
	fp.JobsPerDay, fp.Users = 250, 180
	frontier := runSystem("frontier", cluster.Frontier(), fp, start, end, 11, outRoot)

	ap := tracegen.AndesProfile()
	ap.JobsPerDay, ap.Users = 250, 180
	andes := runSystem("andes", cluster.Andes(), ap, start, end, 12, outRoot)

	cmp := analyze.CompareSystems("frontier", frontier, "andes", andes)

	fmt.Println("\n== Portability contrasts (paper §4.3) ==")
	fmt.Printf("%-38s %12s %12s\n", "", "frontier", "andes")
	row := func(label string, a, b float64, format string) {
		fmt.Printf("%-38s %12s %12s\n", label, fmt.Sprintf(format, a), fmt.Sprintf(format, b))
	}
	row("median allocated nodes", cmp.ScaleA.MedianNodes, cmp.ScaleB.MedianNodes, "%.0f")
	row("median elapsed (min)", cmp.ScaleA.MedianElapsedSec/60, cmp.ScaleB.MedianElapsedSec/60, "%.0f")
	row("small-short job share", cmp.ScaleA.SmallShortShare, cmp.ScaleB.SmallShortShare, "%.2f")
	row("large-long job share", cmp.ScaleA.LargeLongShare, cmp.ScaleB.LargeLongShare, "%.4f")
	row("mean per-user failed share", cmp.UsersA.MeanFailedShare, cmp.UsersB.MeanFailedShare, "%.3f")
	row("failed-share std across users", cmp.UsersA.StdFailedShare, cmp.UsersB.StdFailedShare, "%.3f")
	row("median walltime-use ratio", cmp.BackfillA.MedianUseRatio, cmp.BackfillB.MedianUseRatio, "%.2f")
	row("overestimation share (<75% used)", cmp.BackfillA.OverestimateShare, cmp.BackfillB.OverestimateShare, "%.2f")

	fmt.Println("\nexpected shape (Figures 7-9):")
	check("Andes concentrates smaller jobs", cmp.ScaleB.MedianNodes <= cmp.ScaleA.MedianNodes)
	check("Andes denser in small-short work", cmp.ScaleB.SmallShortShare > cmp.ScaleA.SmallShortShare)
	check("Frontier carries the large-long tail", cmp.ScaleA.LargeLongShare > cmp.ScaleB.LargeLongShare)
	check("Andes fails less", cmp.UsersB.MeanFailedShare < cmp.UsersA.MeanFailedShare)
	check("Andes failure rates more uniform", cmp.UsersB.StdFailedShare < cmp.UsersA.StdFailedShare)
	check("over-estimation persists on both", cmp.BackfillA.OverestimateShare > 0.3 && cmp.BackfillB.OverestimateShare > 0.3)
	check("Andes estimates are tighter", cmp.BackfillB.MedianUseRatio > cmp.BackfillA.MedianUseRatio)

	fmt.Printf("\nartifacts under %s\n", outRoot)
}

func check(label string, ok bool) {
	mark := "OK "
	if !ok {
		mark = "!! "
	}
	fmt.Printf("  %s %s\n", mark, label)
}
