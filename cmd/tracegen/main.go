// Command tracegen generates a synthetic Slurm accounting trace: it
// samples a workload from a system profile, executes it through the
// scheduler simulator, and writes the resulting accounting database dump
// (jobs and steps, pipe-separated) to a file that the other tools consume.
//
// Example:
//
//	tracegen -system frontier -start 2024-01-01 -end 2024-06-30 \
//	  -jobs-per-day 400 -seed 42 -out frontier.trace
//
// The special -scenario full-frontier covers the paper's 2021–2024
// Figure 1 window, acceptance era included.
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
	log.SetPrefix("tracegen: ")

	var (
		system     = flag.String("system", "frontier", "system profile: frontier or andes")
		scenario   = flag.String("scenario", "", "preset scenario: full-frontier (2021-2024, acceptance era included)")
		start      = flag.String("start", "2024-01-01", "window start (YYYY-MM-DD)")
		end        = flag.String("end", "2024-03-01", "window end, exclusive (YYYY-MM-DD)")
		jobsPerDay = flag.Float64("jobs-per-day", 0, "override the profile submission rate")
		users      = flag.Int("users", 0, "override the profile user population")
		seed       = flag.Int64("seed", 1, "workload RNG seed")
		out        = flag.String("out", "trace.txt", "output dump path")
		format     = flag.String("format", "text", "dump format: text (pipe-separated) or binary (columnar)")
		profile    = flag.String("profile", "", "JSON workload profile (overrides -system/-scenario)")
		noSteps    = flag.Bool("no-steps", false, "skip step records (job-level trace only)")
		backfill   = flag.String("backfill", "", "backfill strategy: easy (the default), conservative, or none")
		nodeSel    = flag.String("node-select", "", "node selection policy: pool, firstfit, or bestfit")
	)
	flag.Parse()

	startT, err := time.Parse("2006-01-02", *start)
	if err != nil {
		log.Fatalf("bad -start: %v", err)
	}
	endT, err := time.Parse("2006-01-02", *end)
	if err != nil {
		log.Fatalf("bad -end: %v", err)
	}

	var phases []tracegen.Phase
	var sys *cluster.System
	switch {
	case *profile != "":
		p, err := tracegen.LoadProfile(*profile)
		if err != nil {
			log.Fatal(err)
		}
		if p.System == nil {
			log.Fatalf("profile %s carries no system model", *profile)
		}
		sys = p.System
		phases = []tracegen.Phase{{Profile: p, Start: startT, End: endT}}
	case *scenario == "full-frontier":
		sys = cluster.Frontier()
		phases = tracegen.FrontierScenario(startT, endT)
	case *scenario != "":
		log.Fatalf("unknown scenario %q", *scenario)
	default:
		var builtin tracegen.Profile
		switch *system {
		case "frontier":
			sys = cluster.Frontier()
			builtin = tracegen.FrontierProfile()
		case "andes":
			sys = cluster.Andes()
			builtin = tracegen.AndesProfile()
		default:
			log.Fatalf("unknown system %q", *system)
		}
		phases = []tracegen.Phase{{Profile: builtin, Start: startT, End: endT}}
	}
	for i := range phases {
		if *jobsPerDay > 0 {
			phases[i].Profile.JobsPerDay = *jobsPerDay
		}
		if *users > 0 {
			phases[i].Profile.Users = *users
		}
	}

	reqs, err := tracegen.Generate(phases, *seed)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "generated %d submissions\n", len(reqs))

	cfg := sched.DefaultConfig(sys)
	cfg.Backfill = *backfill
	cfg.NodeSelect = *nodeSel
	cfg.Seed = *seed
	sim, err := sched.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	res, err := sim.Run(reqs, sched.Options{EmitSteps: !*noSteps})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr,
		"simulated: %d jobs, %d steps, %.1f%% utilization, %d backfilled, mean wait %s\n",
		res.Len(), res.StepRows(), 100*res.Stats.Utilization(),
		res.Stats.Backfilled, res.Stats.MeanWait().Round(time.Second))

	store := sacct.NewStore()
	if err := store.Ingest(res); err != nil {
		log.Fatal(err)
	}
	switch *format {
	case "text":
		err = store.DumpFile(*out)
	case "binary":
		err = store.DumpBinaryFile(*out)
	default:
		err = fmt.Errorf("unknown -format %q (want text or binary)", *format)
	}
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "wrote %d records to %s (%s)\n", store.Len(), *out, *format)
}
