// Command schedbench races N scheduling-policy configurations over one
// synthetic workload trace and writes a deterministic comparative
// scorecard (schedbench/v1 JSON): per-policy and per-job-class queue
// waits, bounded slowdown, backfill share, and utilization. With
// -evolve-rounds it runs the LLM policy-evolution loop instead: the
// scorecard goes to the model's /v1/evolve endpoint, proposed parameter
// deltas are validated and applied to the target policy, and the
// tournament re-runs — the full trajectory lands in the output JSON.
//
// Examples:
//
//	schedbench -system frontier -days 7 -jobs-per-day 150 -seed 42 \
//	  -policies default,aging,fifo,conservative -out sched.json
//
//	llmserve -addr :8080 &
//	schedbench -system frontier -days 7 -seed 42 \
//	  -evolve-rounds 3 -llm http://localhost:8080 \
//	  -objective mean_wait_sec -out evolve.json
//
// Everything except the elapsed_ms fields is deterministic for a given
// (trace, policies); CI diffs two runs to prove it.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"slurmsight/internal/core"
	"slurmsight/internal/llm"
	"slurmsight/internal/obs"
	"slurmsight/internal/sched/tournament"
	"slurmsight/internal/tracegen"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("schedbench: ")

	var (
		system     = flag.String("system", "frontier", "system profile: frontier or andes")
		start      = flag.String("start", "2024-03-01", "trace window start (YYYY-MM-DD)")
		days       = flag.Int("days", 7, "trace window length in days")
		jobsPerDay = flag.Float64("jobs-per-day", 0, "override the profile submission rate")
		users      = flag.Int("users", 0, "override the profile user population")
		seed       = flag.Int64("seed", 1, "workload and simulator RNG seed")
		policies   = flag.String("policies", "", "comma-separated policy names from the standard field (default: all)")
		specsPath  = flag.String("specs", "", "JSON file with custom tournament specs (overrides -policies)")
		out        = flag.String("out", "-", "output path for the scorecard JSON (- = stdout)")
		metricsOut = flag.String("metrics-out", "", "optional path for the policy-labelled metrics exposition")

		evolveRounds = flag.Int("evolve-rounds", 0, "run the LLM evolution loop for this many rounds (0 = plain tournament)")
		llmURL       = flag.String("llm", "", "LLM endpoint base URL (required with -evolve-rounds)")
		llmKey       = flag.String("llm-key", "", "LLM API bearer token")
		objective    = flag.String("objective", "mean_slowdown", "evolution objective: mean_slowdown, mean_wait_sec, or utilization")
		target       = flag.String("target", "evolved", "policy name the evolution loop mutates")
	)
	flag.Parse()

	startT, err := time.Parse("2006-01-02", *start)
	if err != nil {
		log.Fatalf("bad -start: %v", err)
	}
	if *days < 1 {
		log.Fatalf("-days must be ≥1")
	}

	profile, err := tracegen.ProfileByName(*system)
	if err != nil {
		log.Fatal(err)
	}
	sys := profile.System
	if *jobsPerDay > 0 {
		profile.JobsPerDay = *jobsPerDay
	}
	if *users > 0 {
		profile.Users = *users
	}
	reqs, err := tracegen.Generate([]tracegen.Phase{{
		Profile: profile, Start: startT, End: startT.AddDate(0, 0, *days),
	}}, *seed)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "generated %d submissions over %d days on %s\n",
		len(reqs), *days, sys.Name)

	specs, err := resolveSpecs(*specsPath, *policies, *evolveRounds > 0, *target)
	if err != nil {
		log.Fatal(err)
	}
	reg := obs.NewRegistry()

	var payload []byte
	if *evolveRounds > 0 {
		if *llmURL == "" {
			log.Fatal("-evolve-rounds needs -llm")
		}
		res, err := core.Evolve(context.Background(), core.EvolveConfig{
			Client:    llm.NewClient(*llmURL, *llmKey),
			Rounds:    *evolveRounds,
			Objective: *objective,
			Target:    *target,
			Specs:     specs,
			Reqs:      reqs,
			System:    sys,
			Seed:      *seed,
			Metrics:   reg,
		})
		if err != nil {
			log.Fatal(err)
		}
		for _, r := range res.Rounds {
			fmt.Fprintf(os.Stderr, "round %d: %d proposed, %d applied, %d rejected\n",
				r.Round, len(r.Proposed), len(r.Applied), len(r.Rejected))
		}
		fmt.Fprintf(os.Stderr, "final target spec: %s\n", specString(res.FinalSpec))
		b, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		payload = append(b, '\n')
	} else {
		sc, err := tournament.Run(tournament.Input{
			Specs: specs, Reqs: reqs, System: sys, Seed: *seed, Metrics: reg,
		})
		if err != nil {
			log.Fatal(err)
		}
		for _, p := range sc.Policies {
			fmt.Fprintf(os.Stderr,
				"%-14s wait %8.0fs  slowdown %7.2f  util %5.1f%%  backfill %5.1f%%\n",
				p.Name, p.MeanWaitSec, p.MeanSlowdown,
				100*p.Utilization, 100*p.BackfillFrac)
		}
		payload, err = sc.EncodeJSON()
		if err != nil {
			log.Fatal(err)
		}
	}

	if err := writeOut(*out, payload); err != nil {
		log.Fatal(err)
	}
	if *metricsOut != "" {
		f, err := os.Create(*metricsOut)
		if err != nil {
			log.Fatal(err)
		}
		reg.WriteText(f)
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
	}
}

// resolveSpecs builds the tournament field from a specs file or a name
// filter over the standard field. In evolve mode the target spec is
// ensured to exist (appended as a default-composition clone when absent).
func resolveSpecs(path, names string, evolve bool, target string) ([]tournament.Spec, error) {
	var specs []tournament.Spec
	switch {
	case path != "":
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		if err := json.Unmarshal(b, &specs); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
	case names != "":
		std := map[string]tournament.Spec{}
		for _, sp := range tournament.DefaultSpecs() {
			std[sp.Name] = sp
		}
		for _, name := range strings.Split(names, ",") {
			name = strings.TrimSpace(name)
			sp, ok := std[name]
			if !ok {
				return nil, fmt.Errorf("unknown policy %q (standard field: %s)",
					name, strings.Join(standardNames(), ", "))
			}
			specs = append(specs, sp)
		}
	default:
		specs = tournament.DefaultSpecs()
	}
	if evolve {
		found := false
		for _, sp := range specs {
			if sp.Name == target {
				found = true
			}
		}
		if !found {
			specs = append(specs, tournament.Spec{Name: target})
		}
	}
	return specs, nil
}

func standardNames() []string {
	var names []string
	for _, sp := range tournament.DefaultSpecs() {
		names = append(names, sp.Name)
	}
	return names
}

func specString(sp tournament.Spec) string {
	b, _ := json.Marshal(sp)
	return string(b)
}

func writeOut(path string, b []byte) error {
	if path == "-" {
		_, err := os.Stdout.Write(b)
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
