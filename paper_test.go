// The paper's evaluation — Tables 1–2, Figures 1–9, the §4.2 LLM
// readings — and the simulator ablations behind its policy discussion,
// regenerated along the repository's own path (tracegen → sched →
// sacct.Store.Ingest → core.RunFederated and core.Run, the AI stages
// answered by the canned analyst) and read back from the files the runs
// write. Every row goes into one golden that EXPERIMENTS.md quotes
// verbatim:
//
//	go test -run TestPaperReproduction .           # check
//	go test -run TestPaperReproduction -update .   # regenerate both
package slurmsight_test

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"slurmsight/internal/analyze"
	"slurmsight/internal/cluster"
	"slurmsight/internal/core"
	"slurmsight/internal/llm"
	"slurmsight/internal/plot"
	"slurmsight/internal/sacct"
	"slurmsight/internal/sched"
	"slurmsight/internal/slurm"
	"slurmsight/internal/stats"
	"slurmsight/internal/tracegen"
)

var update = flag.Bool("update", false, "rewrite "+goldenPath+" and the copy of it in "+experimentsPath)

const (
	goldenPath      = "testdata/paper-reproduction.golden"
	experimentsPath = "EXPERIMENTS.md"
	blockBegin      = "<!-- paper-reproduction: begin -->\n```text\n"
	blockEnd        = "```\n<!-- paper-reproduction: end -->\n"
)

// scenario is one simulated trace and the workflow run over it.
type scenario struct {
	system      string
	sys         *cluster.System
	phases      []tracegen.Phase
	seed        int64
	granularity sacct.Granularity
	steps, ai   bool // emit job-step rows; run the AI stages
}

func (sc scenario) String() string {
	start, end := sc.phases[0].Start, sc.phases[len(sc.phases)-1].End
	p := sc.phases[len(sc.phases)-1].Profile
	return fmt.Sprintf("%s %s..%s, %g jobs/day, %d users, seed %d", sc.system,
		start.Format(time.DateOnly), end.Format(time.DateOnly), p.JobsPerDay, p.Users, sc.seed)
}

// output is one run's output directory.
type output struct {
	dir   string
	facts llm.Facts
}

// config simulates sc and configures the workflow over the ingested
// store. Figure 5 lists every user, so its spec carries the per-user
// spread.
func config(t *testing.T, sc scenario, analyst *llm.Client) core.Config {
	t.Helper()
	reqs, err := tracegen.Generate(sc.phases, sc.seed)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := sched.New(sched.DefaultConfig(sc.sys))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(reqs, sched.Options{EmitSteps: sc.steps})
	if err != nil {
		t.Fatal(err)
	}
	store := sacct.NewStore()
	if err := store.Ingest(res); err != nil {
		t.Fatal(err)
	}
	return core.Config{
		SystemName:  sc.system,
		Store:       store,
		Granularity: sc.granularity,
		Start:       sc.phases[0].Start,
		End:         sc.phases[len(sc.phases)-1].End,
		TopUsers:    1 << 20,
		EnableAI:    sc.ai,
		LLM:         analyst,
	}
}

// written reads the facts.json of the run that wrote art.
func written(t *testing.T, art *core.Artifacts) *output {
	t.Helper()
	out := &output{dir: filepath.Dir(art.FactsPath)}
	if err := json.Unmarshal([]byte(out.read(t, "facts.json")), &out.facts); err != nil {
		t.Fatal(err)
	}
	return out
}

func (o *output) read(t *testing.T, name string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(o.dir, name))
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// chart reads a figure's spec JSON.
func (o *output) chart(t *testing.T, key string) *plot.Chart {
	t.Helper()
	c, err := plot.FromJSON([]byte(o.read(t, key+".json")))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// note reads an LLM note (<key>.insight.md, wait-times-compare.md): the
// answering model, its prose and its statistics appendix.
func (o *output) note(t *testing.T, name string) (model, prose string, st map[string]float64) {
	t.Helper()
	md := o.read(t, name)
	head, appendix, ok := strings.Cut(md, "\n\n## Statistics\n\n")
	parts := strings.SplitN(head, "\n\n", 3)
	if !ok || len(parts) != 3 {
		t.Fatalf("%s is not an LLM note:\n%s", name, md)
	}
	st = map[string]float64{}
	for _, line := range strings.Split(strings.TrimSpace(appendix), "\n") {
		k, v, _ := strings.Cut(strings.TrimPrefix(line, "- "), ": ")
		if st[k], ok = parseFloat(v); !ok {
			t.Fatalf("%s: statistic %q", name, line)
		}
	}
	return strings.TrimPrefix(parts[1], "model: "), strings.TrimSpace(parts[2]), st
}

func parseFloat(s string) (float64, bool) {
	v, err := strconv.ParseFloat(s, 64)
	return v, err == nil
}

// scale reads Figure 3/7's scatter (elapsed seconds against nodes): the
// median elapsed time and the share of large (≥ 1000 nodes), long (≥ 6 h)
// jobs.
func scale(c *plot.Chart) (medianElapsed, largeLong float64) {
	var elapsed []float64
	large := 0
	for _, s := range c.Series {
		for i, x := range s.X {
			elapsed = append(elapsed, x)
			if s.Y[i] >= 1000 && x >= 6*3600 {
				large++
			}
		}
	}
	medianElapsed, _ = stats.Quantile(elapsed, 0.5)
	return medianElapsed, float64(large) / float64(len(elapsed))
}

// failedShares reads Figure 5/8's stacked bars (one category per user,
// one series per final state): each user's unsuccessful share.
func failedShares(c *plot.Chart) stats.Summary {
	bad := map[string]bool{}
	for _, st := range []slurm.State{slurm.StateFailed, slurm.StateCancelled, slurm.StateNodeFail, slurm.StateOutOfMemory} {
		bad[st.String()] = true
	}
	total := make([]float64, len(c.Categories))
	failed := make([]float64, len(c.Categories))
	for _, s := range c.Series {
		for j, y := range s.Y {
			total[j] += y
			if bad[s.Name] {
				failed[j] += y
			}
		}
	}
	for j := range failed {
		failed[j] /= total[j]
	}
	sum, _ := stats.Summarize(failed)
	return sum
}

func pct(v float64) string { return strconv.FormatFloat(100*v, 'f', 1, 64) + "%" }

func dur(sec float64) string {
	return (time.Duration(sec * float64(time.Second))).Round(time.Second).String()
}

// report collects the golden rows; holds records a claim that must hold.
type report struct {
	t    *testing.T
	rows strings.Builder
}

func (r *report) row(key, format string, args ...any) {
	fmt.Fprintf(&r.rows, "%-9s %s\n", key, fmt.Sprintf(format, args...))
}

func (r *report) holds(claim string, ok bool) {
	if !ok {
		r.t.Errorf("does not hold: %s", claim)
	}
}

func TestPaperReproduction(t *testing.T) {
	if raceEnabled {
		t.Skip("a deterministic replay of the evaluation; the race detector adds nothing the core and dataflow race tests miss")
	}
	server := httptest.NewServer(llm.NewServer("sk-paper").Handler())
	defer server.Close()
	analyst := llm.NewClient(server.URL, "sk-paper")

	month := func(profile tracegen.Profile, jobsPerDay float64, users int) []tracegen.Phase {
		profile.JobsPerDay, profile.Users = jobsPerDay, users
		start := time.Date(2024, 2, 1, 0, 0, 0, 0, time.UTC)
		return []tracegen.Phase{{Profile: profile, Start: start, End: start.AddDate(0, 0, 30)}}
	}
	// Figure 1's years: both Frontier eras at a rate whose queues stay
	// short, so three years replay in well under a second.
	years := tracegen.FrontierScenario(time.Date(2022, 1, 1, 0, 0, 0, 0, time.UTC), time.Date(2024, 12, 31, 0, 0, 0, 0, time.UTC))
	for i := range years {
		years[i].Profile.JobsPerDay, years[i].Profile.Users = 6, 120
	}
	scenarios := []scenario{
		{"frontier", cluster.Frontier(), month(tracegen.FrontierProfile(), 250, 160), 5, sacct.Monthly, false, true},
		{"andes", cluster.Andes(), month(tracegen.AndesProfile(), 250, 160), 6, sacct.Monthly, false, true},
		{"frontier", cluster.Frontier(), years, 9, sacct.Yearly, true, false},
	}
	// The two months run as one federation, the §4.3 cross-facility run;
	// Figure 1's years run alone.
	fed, err := core.RunFederated(context.Background(), t.TempDir(), []core.Config{
		config(t, scenarios[0], analyst), config(t, scenarios[1], analyst),
	})
	if err != nil {
		t.Fatal(err)
	}
	frontier, andes := written(t, fed.Members["frontier"]), written(t, fed.Members["andes"])
	yearsCfg := config(t, scenarios[2], analyst)
	yearsCfg.OutputDir = filepath.Join(t.TempDir(), yearsCfg.SystemName)
	art, err := core.Run(context.Background(), yearsCfg)
	if err != nil {
		t.Fatal(err)
	}
	volume := written(t, art)
	comparedAsWritten(t, fed.Comparison, frontier.facts, andes.facts)

	r := &report{t: t}
	for _, sc := range scenarios {
		r.row("scenario", "%v", sc)
	}
	paperTables(t, r, frontier)
	paperFigures(t, r, frontier, andes, volume)
	paperLLM(t, r, frontier)
	ablations(t, r)

	got := r.rows.String()
	block := blockBegin + got + blockEnd
	doc, err := os.ReadFile(experimentsPath)
	if err != nil {
		t.Fatal(err)
	}
	begin, end := strings.Index(string(doc), blockBegin), strings.Index(string(doc), blockEnd)
	if begin < 0 || end < begin {
		t.Fatalf("%s has no paper-reproduction block", experimentsPath)
	}
	if *update {
		spliced := string(doc[:begin]) + block + string(doc[end+len(blockEnd):])
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(experimentsPath, []byte(spliced), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("the reproduction differs from %s (regenerate with -update):\n--- got\n%s--- want\n%s", goldenPath, got, want)
	}
	if quoted := string(doc[begin : end+len(blockEnd)]); quoted != blockBegin+string(want)+blockEnd {
		t.Errorf("%s does not quote %s verbatim (regenerate with -update)", experimentsPath, goldenPath)
	}
}

// comparedAsWritten checks that the federation's comparison holds the
// numbers each member's facts.json states, exactly: the §4.3 contrasts
// below are read from one reader, whichever file they come from.
func comparedAsWritten(t *testing.T, c *analyze.SystemComparison, a, b llm.Facts) {
	t.Helper()
	side := func(s analyze.ScaleSummary, u analyze.UserBehaviorSummary, bf analyze.BackfillSummary) []float64 {
		return []float64{s.MedianNodes, s.SmallShortShare, float64(u.Users), u.MeanFailedShare,
			u.TopDecileFailures, bf.OverestimateShare, bf.MedianUseRatio, bf.BackfilledShare}
	}
	facts := func(f llm.Facts) []float64 {
		return []float64{f.MedianNodes, f.SmallShortShare, float64(f.Users), f.MeanFailedShare,
			f.TopDecileFailures, f.OverestimateShare, f.MedianUseRatio, f.BackfilledShare}
	}
	if got, want := side(c.ScaleA, c.UsersA, c.BackfillA), facts(a); c.NameA != a.System || !slices.Equal(got, want) {
		t.Errorf("comparison side A (%s) %v, want %s's facts.json %v", c.NameA, got, a.System, want)
	}
	if got, want := side(c.ScaleB, c.UsersB, c.BackfillB), facts(b); c.NameB != b.System || !slices.Equal(got, want) {
		t.Errorf("comparison side B (%s) %v, want %s's facts.json %v", c.NameB, got, b.System, want)
	}
}

// paperTables: Table 1's curated field selection, as the sidecar header
// carries it, and Table 2's model choice, as the notes name it.
func paperTables(t *testing.T, r *report, frontier *output) {
	selected := slurm.SelectedNames()
	header, _, _ := strings.Cut(frontier.read(t, "slurm-2024-02.csv"), "\n")
	columns := strings.Split(header, ",")
	for i, c := range columns {
		// The sidecar renders durations in minutes and says so.
		columns[i] = strings.TrimSuffix(c, "Minutes")
	}
	r.holds("the curated sidecar has one column per selected field", slices.Equal(columns, selected))
	r.holds("ElapsedRaw is excluded", !slices.Contains(selected, "ElapsedRaw"))
	categories := map[slurm.Category]bool{}
	for _, name := range selected {
		f, _ := slurm.FieldByName(name)
		categories[f.Category] = true
	}
	r.row("table1", "%d of %d sacct fields selected across %d categories, one curated CSV column each",
		len(selected), len(slurm.AllFieldNames()), len(categories))

	registry := llm.Registry()
	chosen, err := llm.Choose(registry, llm.PaperCriteria())
	if err != nil {
		t.Fatal(err)
	}
	model, _, _ := frontier.note(t, core.FigBackfill+".insight.md")
	r.row("table2", "%d offerings surveyed, %s %s chosen; the notes are answered by %s",
		len(registry), chosen.Vendor, chosen.Model, model)
}

func paperFigures(t *testing.T, r *report, frontier, andes, volume *output) {
	// Figure 1: job and step volume per year.
	vol := volume.chart(t, core.FigVolume)
	for i, year := range vol.Categories {
		r.row("fig1", "%s: %.0f jobs, %.0f steps", year, vol.Series[0].Y[i], vol.Series[1].Y[i])
	}
	r.row("fig1", "steps per job %.1f", volume.facts.StepJobRatio)
	r.holds("job-steps outnumber jobs by an order of magnitude", volume.facts.StepJobRatio >= 10)

	// Figure 2: the dataflow graph the engine inferred for the AI run.
	dot := frontier.read(t, "workflow.dot")
	tasks, edges, rows, widest := 0, 0, 0, 0
	for _, line := range strings.Split(dot, "\n") {
		switch {
		case strings.Contains(line, " -> "):
			edges++
		case strings.HasPrefix(line, "  { rank=same;"):
			rows++
			widest = max(widest, strings.Count(line, ";")-1)
		case strings.HasPrefix(line, `  "`):
			tasks++
		}
	}
	for _, edge := range [][2]string{
		{"obtain-data", "curate-2024-02"}, {"curate-2024-02", "combine"},
		{"combine", "plot-" + core.FigBackfill}, {"plot-" + core.FigBackfill, "html2png-" + core.FigBackfill},
		{"html2png-" + core.FigBackfill, "llm-insight-" + core.FigBackfill}, {"plot-" + core.FigBackfill, "dashboard"},
	} {
		r.holds("workflow.dot draws "+edge[0]+" -> "+edge[1], strings.Contains(dot, fmt.Sprintf("%q -> %q;", edge[0], edge[1])))
	}
	r.row("fig2", "workflow.dot: %d tasks, %d edges; %d rows of tasks that may run at once, the widest %d", tasks, edges, rows, widest)

	// Figures 3–6 on Frontier and their Andes twins, Figures 7–9.
	f, a := frontier.facts, andes.facts
	fElapsed, fLargeLong := scale(frontier.chart(t, core.FigNodesElapsed))
	aElapsed, aLargeLong := scale(andes.chart(t, core.FigNodesElapsed))
	r.row("fig3", "frontier: median nodes %.0f, median elapsed %s; small-short %s; large-long %.2f%%",
		f.MedianNodes, dur(fElapsed), pct(f.SmallShortShare), 100*fLargeLong)

	_, _, waits := frontier.note(t, core.FigWaitTimes+".insight.md")
	r.row("fig4", "frontier: wait p50 %s, p90 %s, p99 %s; %.2f%% beyond 100,000 s",
		dur(f.MedianWaitS), dur(f.P90WaitS), dur(waits["p99_wait_s"]), 100*f.LongWaitFrac)
	var p90s []float64
	for _, s := range frontier.chart(t, core.FigWaitTimes).Series {
		qs, _ := stats.Quantiles(s.Y, 0.9, 1)
		r.row("fig4", "frontier %s: %d jobs, wait p90 %s, longest %s", s.Name, len(s.Y), dur(qs[0]), dur(qs[1]))
		if len(s.Y) >= 100 {
			p90s = append(p90s, qs[0])
		}
	}
	r.holds("a long-wait tail beyond 100,000 s", f.LongWaitFrac > 0 && waits["p99_wait_s"] > 10*f.P90WaitS)
	r.holds("the wait tail stratifies by final state", slices.Max(p90s) > 2*slices.Min(p90s))

	fUsers, aUsers := failedShares(frontier.chart(t, core.FigStates)), failedShares(andes.chart(t, core.FigStates))
	r.row("fig5", "frontier: %d users; mean failed share %s, std %.2f; the top decile of failing users owns %s of failures",
		f.Users, pct(f.MeanFailedShare), fUsers.Std, pct(f.TopDecileFailures))
	r.holds("failures concentrate in a few users", f.TopDecileFailures > 0.5)

	_, _, backfill := frontier.note(t, core.FigBackfill+".insight.md")
	r.row("fig6", "frontier: %s use under 75%% of their request; median use %s; %s backfill starts; %.0f node-hours reclaimable",
		pct(f.OverestimateShare), pct(f.MedianUseRatio), pct(f.BackfilledShare), f.ReclaimableNodeHours)
	// The paper sees backfilled jobs skew short; at this contention they
	// do not. Pinned as a value, not asserted.
	r.row("fig6", "frontier: median runtime %s backfilled vs %s regular",
		dur(backfill["median_actual_backfilled"]), dur(backfill["median_actual_regular"]))
	r.holds("walltime over-estimation on Frontier", f.OverestimateShare > 0.5 && f.MedianUseRatio < 0.75)

	r.row("fig7", "andes: median nodes %.0f, median elapsed %s; small-short %s; large-long %.2f%%",
		a.MedianNodes, dur(aElapsed), pct(a.SmallShortShare), 100*aLargeLong)
	r.row("fig8", "andes: %d users; mean failed share %s, std %.2f", a.Users, pct(a.MeanFailedShare), aUsers.Std)
	r.row("fig9", "andes: %s use under 75%% of their request; median use %s",
		pct(a.OverestimateShare), pct(a.MedianUseRatio))

	// The seven §4.3 contrasts.
	r.holds("Andes concentrates smaller jobs", a.MedianNodes <= f.MedianNodes)
	r.holds("Andes is denser in small-short work", a.SmallShortShare > f.SmallShortShare)
	r.holds("Frontier carries the large-long tail", fLargeLong > aLargeLong)
	r.holds("Andes fails less", a.MeanFailedShare < f.MeanFailedShare)
	r.holds("Andes failure rates are more uniform", aUsers.Std < fUsers.Std)
	r.holds("over-estimation persists on both", f.OverestimateShare > 0.3 && a.OverestimateShare > 0.3)
	r.holds("Andes estimates are tighter", a.MedianUseRatio > f.MedianUseRatio)

	// The spread read off Figure 5's spec is of the users facts.json averages.
	r.holds("Frontier's Figure 5 spec and facts.json agree", math.Abs(fUsers.Mean-f.MeanFailedShare) < 1e-9)
	r.holds("Andes's Figure 5 spec and facts.json agree", math.Abs(aUsers.Mean-a.MeanFailedShare) < 1e-9)
}

// paperLLM: the §4.2 readings, as the insight and compare notes give them.
func paperLLM(t *testing.T, r *report, frontier *output) {
	_, insight, _ := frontier.note(t, core.FigBackfill+".insight.md")
	_, compare, st := frontier.note(t, "wait-times-compare.md")
	r.row("s4.2", "%s insight: %s", core.FigBackfill, insight)
	for _, paragraph := range strings.Split(compare, "\n\n") {
		r.row("s4.2", "wait-times compare: %s", strings.TrimSpace(paragraph))
	}
	r.holds("the insight reads systematic over-estimation", strings.Contains(insight, "overestimating"))
	r.holds("the compare note weighs both halves' long-wait tails",
		strings.Contains(compare, "long-wait") && st["a_long_wait_frac"] != st["b_long_wait_frac"])
}

// ablations replays the four simulator contrasts behind the paper's
// policy discussion, each pair on one fixed workload.
func ablations(t *testing.T, r *report) {
	start := time.Date(2024, 2, 1, 0, 0, 0, 0, time.UTC)
	hours := func(h float64) float64 { return h * 3600 }
	generate := func(p tracegen.Profile, days int) []tracegen.Request {
		reqs, err := tracegen.Generate([]tracegen.Phase{{Profile: p, Start: start, End: start.AddDate(0, 0, days)}}, 3)
		if err != nil {
			t.Fatal(err)
		}
		return reqs
	}
	simulate := func(cfg sched.Config, reqs []tracegen.Request) *sched.Result {
		sim, err := sched.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(reqs, sched.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	wait := func(s sched.RunStats) string { return s.MeanWait().Round(time.Second).String() }

	// EASY backfill against priority-order FIFO on one contended Frontier
	// workload.
	p := tracegen.FrontierProfile()
	p.JobsPerDay, p.Users = 220, 100
	reqs := generate(p, 10)
	cfg := sched.DefaultConfig(cluster.Frontier())
	easy := simulate(cfg, reqs).Stats
	cfg.Backfill = "none"
	fifo := simulate(cfg, reqs).Stats
	r.row("ablation", "backfill: EASY mean wait %s (util %s, %d backfilled) vs FIFO %s (util %s), %.1fx",
		wait(easy), pct(easy.Utilization()), easy.Backfilled, wait(fifo), pct(fifo.Utilization()),
		float64(fifo.MeanWait())/float64(easy.MeanWait()))
	r.holds("EASY backfill shortens waits", easy.MeanWait() < fifo.MeanWait())

	// The same workload with every class's walltime over-estimate forced.
	var waits []time.Duration
	var text []string
	for _, over := range []float64{1, 2, 4} {
		q := p
		q.Classes = slices.Clone(p.Classes)
		for i := range q.Classes {
			q.Classes[i].Overestimate = tracegen.Const(over)
		}
		s := simulate(sched.DefaultConfig(cluster.Frontier()), generate(q, 10)).Stats
		waits = append(waits, s.MeanWait())
		text = append(text, fmt.Sprintf("%.0fx %s", over, wait(s)))
	}
	r.row("ablation", "walltime over-estimate: mean wait %s", strings.Join(text, ", "))
	r.holds("tighter estimates shorten queues", slices.IsSorted(waits) && waits[0] < waits[len(waits)-1])

	// Urgent steering jobs on a machine a soak pool saturates, with the
	// pool preemptible and not.
	urgent := func(soakQOS string) (time.Duration, int) {
		p := tracegen.Profile{
			Name: "preemption-ablation", System: cluster.Frontier(),
			Users: 40, UserSkew: 0.8, FailSpread: 1.2, JobsPerDay: 120,
			Classes: []tracegen.Class{{
				Name: "soak", Weight: 0.9, QOS: soakQOS,
				Nodes:        tracegen.Clamped{D: tracegen.LogNormalMedian(1500, 1.6), Lo: 512, Hi: 5000},
				Runtime:      tracegen.Clamped{D: tracegen.LogNormalMedian(hours(10), 1.5), Lo: hours(2), Hi: hours(24)},
				Overestimate: tracegen.Clamped{D: tracegen.Const(1.2), Lo: 1, Hi: 2},
				Steps:        tracegen.Const(2),
			}, {
				Name: "steering", Weight: 0.1, QOS: "urgent",
				Nodes:        tracegen.Clamped{D: tracegen.LogNormalMedian(16, 1.6), Lo: 1, Hi: 64},
				Runtime:      tracegen.Clamped{D: tracegen.LogNormalMedian(hours(0.2), 1.5), Lo: 60, Hi: hours(1)},
				Overestimate: tracegen.Clamped{D: tracegen.Const(1.5), Lo: 1, Hi: 3},
				Steps:        tracegen.Const(2),
			}},
		}
		res := simulate(sched.DefaultConfig(cluster.Frontier()), generate(p, 7))
		var total time.Duration
		n := 0
		for o := range res.Outcomes {
			if o.Req.QOS == "urgent" && o.Started {
				total += o.Start.Sub(o.Req.Submit)
				n++
			}
		}
		return total / time.Duration(max(n, 1)), res.Stats.Preemptions
	}
	withPool, evictions := urgent("preemptible")
	withoutPool, _ := urgent("normal")
	r.row("ablation", "preemption: urgent mean wait %s with an evictable pool (%d evictions) vs %s without",
		withPool.Round(time.Second), evictions, withoutPool.Round(time.Second))
	r.holds("preemption protects urgent latency", evictions > 0 && withPool < withoutPool)

	// A 64-node analysis cluster flooded with quarter-node jobs, placed
	// shared and exclusive.
	sys := &cluster.System{
		Name: "analysis", Nodes: 64, CoresPerNode: 32, MemPerNode: 256 << 30,
		Partitions: []cluster.Partition{{Name: "batch", Nodes: 64, MaxWall: 24 * time.Hour, Default: true}},
		QOSLevels:  []cluster.QOS{{Name: "normal"}},
	}
	if err := sys.Validate(); err != nil {
		t.Fatal(err)
	}
	flood := generate(tracegen.Profile{
		Name: "sharing-ablation", System: sys,
		Users: 60, UserSkew: 0.8, FailSpread: 1.2, JobsPerDay: 430,
		Classes: []tracegen.Class{{
			Name: "interactive", Weight: 1, QOS: "normal",
			Nodes:        tracegen.Const(1),
			SubNodeCores: tracegen.Clamped{D: tracegen.LogNormalMedian(7, 1.5), Lo: 1, Hi: 16},
			Runtime:      tracegen.Clamped{D: tracegen.LogNormalMedian(hours(4), 1.5), Lo: 1800, Hi: hours(12)},
			Overestimate: tracegen.Clamped{D: tracegen.Const(1.5), Lo: 1, Hi: 3},
			Steps:        tracegen.Const(2),
		}},
	}, 5)
	cfg = sched.DefaultConfig(sys)
	cfg.EnableNodeSharing = true
	shared := simulate(cfg, flood).Stats
	cfg.EnableNodeSharing = false
	exclusive := simulate(cfg, flood).Stats
	r.row("ablation", "node sharing: mean wait %s shared (util %s) vs %s exclusive (util %s)",
		wait(shared), pct(shared.Utilization()), wait(exclusive), pct(exclusive.Utilization()))
	r.holds("node sharing absorbs the sub-node flood", shared.MeanWait() < exclusive.MeanWait())
}
