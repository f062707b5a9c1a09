// Command calibrate fits a synthetic-workload profile to an existing
// accounting trace and optionally regenerates a statistical double of it —
// the path a site takes to produce a shareable synthetic mirror of
// proprietary sacct data.
//
// Example:
//
//	calibrate -trace frontier.trace -system frontier \
//	  -regen double.trace -days 30 -seed 7
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"slurmsight/internal/cluster"
	"slurmsight/internal/sacct"
	"slurmsight/internal/sched"
	"slurmsight/internal/tracegen"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("calibrate: ")

	var (
		trace  = flag.String("trace", "trace.txt", "accounting dump to calibrate against")
		system = flag.String("system", "frontier", "system model: frontier or andes")
		regen  = flag.String("regen", "", "write a regenerated synthetic double to this path")
		days   = flag.Int("days", 30, "days of workload to regenerate")
		seed   = flag.Int64("seed", 1, "regeneration seed")
		save   = flag.String("save-profile", "", "write the fitted profile as JSON")
	)
	flag.Parse()

	sys, err := cluster.ByName(*system)
	if err != nil {
		log.Fatal(err)
	}
	store, malformed, err := sacct.LoadFile(*trace)
	if err != nil {
		log.Fatal(err)
	}
	if malformed > 0 {
		log.Printf("warning: %d malformed rows dropped on load", malformed)
	}
	records, err := store.Select(sacct.Query{IncludeSteps: true})
	if err != nil {
		log.Fatal(err)
	}

	profile, err := tracegen.FitProfile("fitted-"+*system, sys, records)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fitted profile %q from %d records:\n", profile.Name, len(records))
	fmt.Printf("  users: %d (activity skew %.2f, failure spread %.2f)\n",
		profile.Users, profile.UserSkew, profile.FailSpread)
	fmt.Printf("  submission rate: %.1f jobs/day\n", profile.JobsPerDay)
	for _, c := range profile.Classes {
		fmt.Printf("  class %-8s weight %.2f  fail %.2f cancel %.2f timeout %.2f  array %.2f\n",
			c.Name, c.Weight, c.FailRate, c.CancelRate, c.TimeoutRate, c.ArrayProb)
	}
	if *save != "" {
		if err := tracegen.SaveProfile(&profile, *save); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote fitted profile to %s\n", *save)
	}
	if *regen == "" {
		return
	}

	start := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	reqs, err := tracegen.Generate([]tracegen.Phase{{
		Profile: profile, Start: start, End: start.AddDate(0, 0, *days),
	}}, *seed)
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
	double := sacct.NewStore()
	if err := double.Ingest(res); err != nil {
		log.Fatal(err)
	}
	if err := double.DumpFile(*regen); err != nil {
		log.Fatal(err)
	}
	regenRecords, err := double.Select(sacct.Query{IncludeSteps: true})
	if err != nil {
		log.Fatal(err)
	}

	rep := tracegen.CompareTraces(records, regenRecords)
	fmt.Fprintf(os.Stderr, "\nwrote %d records to %s\n", double.Len(), *regen)
	fmt.Printf("\n%-22s %12s %12s\n", "calibration check", "original", "double")
	row := func(label string, v [2]float64, format string) {
		fmt.Printf("%-22s %12s %12s\n", label,
			fmt.Sprintf(format, v[0]), fmt.Sprintf(format, v[1]))
	}
	fmt.Printf("%-22s %12d %12d\n", "jobs", rep.Jobs[0], rep.Jobs[1])
	row("jobs/day", rep.JobsPerDay, "%.1f")
	row("median nodes", rep.MedianNodes, "%.0f")
	row("median runtime (s)", rep.MedianRuntimeS, "%.0f")
	row("median over-ratio", rep.MedianOverRatio, "%.2f")
	row("failed share", rep.FailedShare, "%.3f")
}
