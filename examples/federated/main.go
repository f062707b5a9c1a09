// Federated analytics: the paper's §6 future-work item made concrete —
// the identical workflow executed over two facilities, consolidated into
// a cross-facility comparison chart, a federated index page, and an LLM
// narrative contrasting the systems' walltime behaviour. The grounded
// conversational agent then answers policy questions about each facility
// from its own facts.
//
//	go run ./examples/federated
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

func buildStore(profile tracegen.Profile, sys *cluster.System,
	start, end time.Time, seed int64) *sacct.Store {
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
	return store
}

func main() {
	log.SetFlags(0)
	start := time.Date(2024, 4, 1, 0, 0, 0, 0, time.UTC)
	end := start.AddDate(0, 0, 30)

	analyst := httptest.NewServer(llm.NewServer("sk-federated").Handler())
	defer analyst.Close()
	client := llm.NewClient(analyst.URL, "sk-federated")

	fp := tracegen.FrontierProfile()
	fp.JobsPerDay, fp.Users = 200, 140
	ap := tracegen.AndesProfile()
	ap.JobsPerDay, ap.Users = 200, 140

	outDir, err := os.MkdirTemp("", "slurmsight-federated-")
	if err != nil {
		log.Fatal(err)
	}
	member := func(name string, sys *cluster.System, p tracegen.Profile, seed int64) core.Member {
		return core.Member{Config: core.Config{
			SystemName:  name,
			Store:       buildStore(p, sys, start, end, seed),
			Granularity: sacct.Monthly,
			Start:       start,
			End:         end,
			Workers:     4,
			EnableAI:    true,
			LLM:         client,
			SystemNodes: sys.Nodes,
		}}
	}

	fed, err := core.RunFederated(context.Background(), outDir, []core.Member{
		member("frontier", cluster.Frontier(), fp, 41),
		member("andes", cluster.Andes(), ap, 42),
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("== Federated members ==")
	for name, art := range fed.Members {
		fmt.Printf("  %-9s %6d jobs / %7d records — report %s\n",
			name, art.Jobs, art.Records, art.ReportPath)
	}

	cmp := fed.Comparison
	fmt.Println("\n== Cross-facility contrast ==")
	fmt.Printf("  median use ratio:   %s %.2f vs %s %.2f\n",
		cmp.NameA, cmp.BackfillA.MedianUseRatio, cmp.NameB, cmp.BackfillB.MedianUseRatio)
	fmt.Printf("  mean failed share:  %s %.3f vs %s %.3f\n",
		cmp.NameA, cmp.UsersA.MeanFailedShare, cmp.NameB, cmp.UsersB.MeanFailedShare)
	fmt.Printf("  small-short share:  %s %.2f vs %s %.2f\n",
		cmp.NameA, cmp.ScaleA.SmallShortShare, cmp.NameB, cmp.ScaleB.SmallShortShare)

	compare, err := os.ReadFile(fed.ComparePath)
	if err != nil {
		log.Fatal(err)
	}
	text := string(compare)
	if i := strings.Index(text, "\n\nFirst chart:"); i > 0 {
		text = text[:i]
	}
	fmt.Println("\n== LLM cross-facility narrative ==")
	fmt.Println(strings.TrimSpace(stripHeader(text)))

	fmt.Println("\n== Per-facility agent Q&A ==")
	for name, art := range fed.Members {
		agent := llm.NewAgent(art.Facts(name))
		reply := agent.Ask("what should we tune first?", "")
		first := strings.SplitN(reply.Text, "\n", 3)
		fmt.Printf("  [%s] %s\n", name, strings.Join(first[:min(2, len(first))], " "))
	}

	fmt.Printf("\nfederated index: %s\n", fed.IndexPath)
}

func stripHeader(md string) string {
	lines := strings.Split(md, "\n")
	var keep []string
	for _, l := range lines {
		if strings.HasPrefix(l, "#") || strings.HasPrefix(l, "model:") {
			continue
		}
		keep = append(keep, l)
	}
	return strings.Join(keep, "\n")
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
