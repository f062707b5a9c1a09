package tracegen

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"slurmsight/internal/slurm"
)

func window(days int) (time.Time, time.Time) {
	start := time.Date(2024, 3, 1, 0, 0, 0, 0, time.UTC)
	return start, start.AddDate(0, 0, days)
}

func smallFrontier(days int) []Phase {
	p := FrontierProfile()
	p.JobsPerDay = 120
	p.Users = 60
	start, end := window(days)
	return []Phase{{Profile: p, Start: start, End: end}}
}

func TestProfileByName(t *testing.T) {
	for _, name := range []string{"frontier", "andes"} {
		p, err := ProfileByName(name)
		if err != nil {
			t.Fatalf("ProfileByName(%s): %v", name, err)
		}
		if p.System == nil || p.System.Name != name {
			t.Fatalf("ProfileByName(%s) carries system %+v", name, p.System)
		}
		if err := p.System.Validate(); err != nil {
			t.Errorf("%s invalid: %v", name, err)
		}
	}
	if _, err := ProfileByName("summit"); err == nil {
		t.Error("ProfileByName(summit): want error")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(smallFrontier(7), 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(smallFrontier(7), 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request %d differs", i)
		}
	}
	c, err := Generate(smallFrontier(7), 43)
	if err != nil {
		t.Fatal(err)
	}
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical workloads")
	}
}

func TestGenerateSortedAndInWindow(t *testing.T) {
	start, end := window(7)
	reqs, err := Generate(smallFrontier(7), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) == 0 {
		t.Fatal("no requests generated")
	}
	for i, r := range reqs {
		if r.Submit.Before(start) || !r.Submit.Before(end) {
			t.Fatalf("request %d outside window: %v", i, r.Submit)
		}
		if i > 0 && r.Submit.Before(reqs[i-1].Submit) {
			t.Fatalf("requests unsorted at %d", i)
		}
	}
}

func TestGenerateInvariants(t *testing.T) {
	reqs, err := Generate(smallFrontier(14), 7)
	if err != nil {
		t.Fatal(err)
	}
	sys := FrontierProfile().System
	for _, r := range reqs {
		if r.Nodes < 1 || r.Nodes > sys.Nodes {
			t.Fatalf("nodes out of range: %d", r.Nodes)
		}
		if r.Timelimit < 10*time.Minute {
			t.Fatalf("timelimit below floor: %v", r.Timelimit)
		}
		if r.TrueRuntime <= 0 {
			t.Fatalf("non-positive runtime")
		}
		if r.Steps < 1 {
			t.Fatalf("job with no steps")
		}
		if r.User == "" || r.Account == "" || r.Partition == "" {
			t.Fatalf("incomplete identity: %+v", r)
		}
		switch r.Outcome {
		case slurm.StateCompleted:
			if r.TrueRuntime > r.Timelimit {
				t.Fatalf("completed job exceeding its limit")
			}
		case slurm.StateTimeout:
			if r.TrueRuntime <= r.Timelimit {
				t.Fatalf("timeout job within its limit")
			}
		case slurm.StateCancelled:
			if r.CancelAfter <= 0 {
				t.Fatalf("cancelled job without CancelAfter")
			}
		case slurm.StateFailed, slurm.StateNodeFail, slurm.StateOutOfMemory:
			if r.FailFrac < 0 || r.FailFrac > 1 {
				t.Fatalf("FailFrac out of range: %v", r.FailFrac)
			}
		default:
			t.Fatalf("unexpected planned outcome %v", r.Outcome)
		}
	}
}

func TestOverestimationShape(t *testing.T) {
	reqs, err := Generate(smallFrontier(21), 3)
	if err != nil {
		t.Fatal(err)
	}
	over := 0
	completed := 0
	for _, r := range reqs {
		if r.Outcome != slurm.StateCompleted {
			continue
		}
		completed++
		if r.Timelimit > r.TrueRuntime+r.TrueRuntime/4 {
			over++
		}
	}
	if completed == 0 {
		t.Fatal("no completed jobs")
	}
	if frac := float64(over) / float64(completed); frac < 0.4 {
		t.Errorf("over-estimation fraction = %.2f, want the paper's systematic majority", frac)
	}
}

func TestStepStructure(t *testing.T) {
	reqs, err := Generate(smallFrontier(21), 9)
	if err != nil {
		t.Fatal(err)
	}
	totalSteps := 0
	for _, r := range reqs {
		totalSteps += r.Steps
	}
	ratio := float64(totalSteps) / float64(len(reqs))
	// Figure 1: job-steps exceed jobs by roughly an order of magnitude.
	if ratio < 5 || ratio > 40 {
		t.Errorf("steps-per-job ratio = %.1f, want within [5, 40]", ratio)
	}
}

func TestUserConcentration(t *testing.T) {
	reqs, err := Generate(smallFrontier(28), 11)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, r := range reqs {
		counts[r.User]++
	}
	if len(counts) < 10 {
		t.Fatalf("too few active users: %d", len(counts))
	}
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	mean := float64(len(reqs)) / float64(len(counts))
	if float64(max) < 3*mean {
		t.Errorf("heaviest user %d vs mean %.1f: expected heavy-tailed activity", max, mean)
	}
}

func TestAndesVsFrontierContrast(t *testing.T) {
	start, end := window(21)
	fp := FrontierProfile()
	fp.JobsPerDay, fp.Users = 150, 80
	ap := AndesProfile()
	ap.JobsPerDay, ap.Users = 150, 80
	fr, err := Generate([]Phase{{Profile: fp, Start: start, End: end}}, 5)
	if err != nil {
		t.Fatal(err)
	}
	an, err := Generate([]Phase{{Profile: ap, Start: start, End: end}}, 5)
	if err != nil {
		t.Fatal(err)
	}
	medNodes := func(rs []Request) float64 {
		xs := make([]int, len(rs))
		for i, r := range rs {
			xs[i] = r.Nodes
		}
		// insertion-free median via counting is overkill; sort a copy
		for i := 1; i < len(xs); i++ {
			for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
				xs[j], xs[j-1] = xs[j-1], xs[j]
			}
		}
		return float64(xs[len(xs)/2])
	}
	frac := func(rs []Request, f func(Request) bool) float64 {
		n := 0
		for _, r := range rs {
			if f(r) {
				n++
			}
		}
		return float64(n) / float64(len(rs))
	}
	if medNodes(an) > medNodes(fr) {
		t.Errorf("Andes median nodes %.0f > Frontier %.0f; want denser small jobs on Andes",
			medNodes(an), medNodes(fr))
	}
	failed := func(r Request) bool {
		return r.Outcome == slurm.StateFailed || r.Outcome == slurm.StateCancelled
	}
	if frac(an, failed) >= frac(fr, failed) {
		t.Errorf("Andes fail+cancel %.3f ≥ Frontier %.3f; want lower failure on Andes",
			frac(an, failed), frac(fr, failed))
	}
}

func TestFrontierScenarioSplit(t *testing.T) {
	start := time.Date(2021, 6, 1, 0, 0, 0, 0, time.UTC)
	end := time.Date(2024, 12, 31, 0, 0, 0, 0, time.UTC)
	phases := FrontierScenario(start, end)
	if len(phases) != 2 {
		t.Fatalf("phases = %d, want 2", len(phases))
	}
	cut := time.Date(2023, 4, 1, 0, 0, 0, 0, time.UTC)
	if !phases[0].End.Equal(cut) || !phases[1].Start.Equal(cut) {
		t.Errorf("era cut wrong: %v / %v", phases[0].End, phases[1].Start)
	}
	only := FrontierScenario(cut, end)
	if len(only) != 1 || only[0].Profile.Name != "frontier-production" {
		t.Errorf("production-only scenario wrong: %+v", only)
	}
	early := FrontierScenario(start, cut)
	if len(early) != 1 || early[0].Profile.Name != "frontier-acceptance" {
		t.Errorf("acceptance-only scenario wrong: %+v", early)
	}
}

func TestGenerateErrors(t *testing.T) {
	start, end := window(1)
	bad := FrontierProfile()
	bad.Users = 0
	if _, err := Generate([]Phase{{Profile: bad, Start: start, End: end}}, 1); err == nil {
		t.Error("zero users: want error")
	}
	empty := FrontierProfile()
	if _, err := Generate([]Phase{{Profile: empty, Start: end, End: start}}, 1); err == nil {
		t.Error("empty window: want error")
	}
	noClasses := FrontierProfile()
	noClasses.Classes = nil
	if _, err := Generate([]Phase{{Profile: noClasses, Start: start, End: end}}, 1); err == nil {
		t.Error("no classes: want error")
	}
	hot := FrontierProfile()
	hot.Classes[0].FailRate = 0.99
	if _, err := Generate([]Phase{{Profile: hot, Start: start, End: end}}, 1); err == nil {
		t.Error("failure rates > 95%: want error")
	}
}

func TestDistributions(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	if v := (Const(7)).Sample(r); v != 7 {
		t.Errorf("Const = %v", v)
	}
	u := Uniform{2, 5}
	for i := 0; i < 100; i++ {
		if v := u.Sample(r); v < 2 || v >= 5 {
			t.Fatalf("Uniform out of range: %v", v)
		}
	}
	ln := LogNormalMedian(100, 2)
	var sum float64
	n := 20000
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = ln.Sample(r)
		sum += math.Log(vals[i])
	}
	if med := math.Exp(sum / float64(n)); med < 85 || med > 115 {
		t.Errorf("LogNormal geometric mean = %.1f, want ≈100", med)
	}
	c := Clamped{LogNormalMedian(100, 4), 50, 200}
	for i := 0; i < 1000; i++ {
		if v := c.Sample(r); v < 50 || v > 200 {
			t.Fatalf("Clamped out of range: %v", v)
		}
	}
	m := Mixture{Weights: []float64{1, 0}, Parts: []Dist{Const(1), Const(2)}}
	if v := m.Sample(r); v != 1 {
		t.Errorf("Mixture ignored weights: %v", v)
	}
	e := Exponential{Mean: 10}
	sum = 0
	for i := 0; i < n; i++ {
		sum += e.Sample(r)
	}
	if mean := sum / float64(n); mean < 9 || mean > 11 {
		t.Errorf("Exponential mean = %.2f, want ≈10", mean)
	}
}

func TestPoisson(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	if poisson(r, 0) != 0 || poisson(r, -5) != 0 {
		t.Error("non-positive mean should give 0")
	}
	for _, mean := range []float64{3, 100} {
		var sum float64
		n := 5000
		for i := 0; i < n; i++ {
			sum += float64(poisson(r, mean))
		}
		got := sum / float64(n)
		if math.Abs(got-mean) > mean*0.1+0.5 {
			t.Errorf("poisson(%v) sample mean = %.2f", mean, got)
		}
	}
}

func TestWeightedIndexPanics(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	defer func() {
		if recover() == nil {
			t.Error("weightedIndex with zero weights should panic")
		}
	}()
	weightedIndex(r, []float64{0, 0})
}

func TestArrayExpansion(t *testing.T) {
	p := FrontierProfile()
	p.JobsPerDay, p.Users = 200, 40
	// Force ensembles to always be arrays for the test.
	for i := range p.Classes {
		if p.Classes[i].Name == "ensemble" {
			p.Classes[i].ArrayProb = 1.0
		}
	}
	start, end := window(5)
	reqs, err := Generate([]Phase{{Profile: p, Start: start, End: end}}, 13)
	if err != nil {
		t.Fatal(err)
	}
	groups := map[int64][]Request{}
	for _, r := range reqs {
		if r.ArrayID != 0 {
			groups[r.ArrayID] = append(groups[r.ArrayID], r)
		}
	}
	if len(groups) == 0 {
		t.Fatal("no arrays generated")
	}
	for id, g := range groups {
		if len(g) < 2 {
			t.Errorf("array %d has %d tasks, want ≥2", id, len(g))
		}
		seen := map[int]bool{}
		for _, r := range g {
			if seen[r.ArrayIndex] {
				t.Errorf("array %d repeats index %d", id, r.ArrayIndex)
			}
			seen[r.ArrayIndex] = true
			if !r.Submit.Equal(g[0].Submit) {
				t.Errorf("array %d tasks submitted at different times", id)
			}
		}
	}
}
