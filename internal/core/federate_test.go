package core

import (
	"context"
	"encoding/json"
	"errors"
	"hash/fnv"
	"io/fs"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"slurmsight/internal/analyze"
	"slurmsight/internal/cluster"
	"slurmsight/internal/llm"
	"slurmsight/internal/plot"
	"slurmsight/internal/sacct"
	"slurmsight/internal/sched"
	"slurmsight/internal/tracegen"
)

var andesStore *sacct.Store

// testAndesStore simulates a small Andes workload once.
func testAndesStore(t *testing.T) *sacct.Store {
	t.Helper()
	if andesStore != nil {
		return andesStore
	}
	p := tracegen.AndesProfile()
	p.JobsPerDay, p.Users = 25, 25
	reqs, err := tracegen.Generate([]tracegen.Phase{{
		Profile: p, Start: t0, End: t0.AddDate(0, 0, 35),
	}}, 29)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := sched.New(sched.DefaultConfig(cluster.Andes()))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(reqs, sched.Options{EmitSteps: true})
	if err != nil {
		t.Fatal(err)
	}
	st := sacct.NewStore()
	if err := st.Ingest(res); err != nil {
		t.Fatal(err)
	}
	st.Finalize()
	andesStore = st
	return st
}

// federation is the Frontier (AI on, canned analyst) + Andes run the
// federated tests share, made once per test binary in a directory
// TestMain removes.
var federation struct {
	once sync.Once
	dir  string
	fed  *FederatedArtifacts
	err  error
}

func TestMain(m *testing.M) {
	code := m.Run()
	if federation.dir != "" {
		os.RemoveAll(federation.dir)
	}
	os.Exit(code)
}

// runTestFederation returns the shared federation, running it on the
// first call.
func runTestFederation(t *testing.T) *FederatedArtifacts {
	t.Helper()
	f := &federation
	f.once.Do(func() {
		analyst := httptest.NewServer(llm.NewServer("sk-fed").Handler())
		defer analyst.Close()
		client := llm.NewClient(analyst.URL, "sk-fed")

		if f.dir, f.err = os.MkdirTemp("", "federation-"); f.err != nil {
			return
		}
		frontierCfg := baseConfig(t)
		frontierCfg.OutputDir = "" // federated default placement
		frontierCfg.EnableAI = true
		frontierCfg.LLM = client

		andesCfg := baseConfig(t)
		andesCfg.SystemName = "andes"
		andesCfg.Store = testAndesStore(t)
		andesCfg.OutputDir = ""

		f.fed, f.err = RunFederated(context.Background(), f.dir, []Config{frontierCfg, andesCfg})
	})
	if f.err != nil {
		t.Fatal(f.err)
	}
	if f.fed == nil {
		t.Fatal("the shared federation failed in an earlier test")
	}
	return f.fed
}

// TestRunFederatedGoldenDigest pins the bytes of the cross-facility
// layer: the Comparison as JSON, federated-comparison.html, the canned
// analyst's federated-compare.md and every member's facts.json. The
// constant was re-recorded when the comparison and the compare note came
// to read what the members wrote (whole-second Elapsed, where a second
// pass over the stores saw sub-second) and node-hours came to sum
// exactly, so that it no longer depends on GOMAXPROCS.
func TestRunFederatedGoldenDigest(t *testing.T) {
	fed := runTestFederation(t)
	h := fnv.New64a()
	cmp, err := json.Marshal(fed.Comparison)
	if err != nil {
		t.Fatal(err)
	}
	h.Write(cmp)
	for _, path := range []string{
		fed.ComparisonChartPath, fed.ComparePath,
		fed.Members["frontier"].FactsPath, fed.Members["andes"].FactsPath,
	} {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(data)
	}
	const want = 0xcacc4d46304b9955
	if got := h.Sum64(); got != want {
		t.Errorf("comparison + chart + compare + facts digest to %#x, want %#x", got, uint64(want))
	}
}

func TestRunFederated(t *testing.T) {
	fed := runTestFederation(t)
	if len(fed.Members) != 2 {
		t.Fatalf("members = %d", len(fed.Members))
	}
	for _, name := range []string{"frontier", "andes"} {
		art := fed.Members[name]
		if art == nil || art.Jobs == 0 {
			t.Fatalf("member %s missing or empty", name)
		}
		if _, err := os.Stat(filepath.Join(filepath.Dir(fed.IndexPath), name, "dashboard.html")); err != nil {
			t.Errorf("member %s dashboard missing: %v", name, err)
		}
	}
	// The comparison is the members' own summaries, the values each
	// facts.json serialises, read back as they are.
	cmp := fed.Comparison
	if cmp == nil {
		t.Fatal("no comparison")
	}
	if cmp.NameA != "frontier" || cmp.NameB != "andes" {
		t.Errorf("comparison names %q, %q", cmp.NameA, cmp.NameB)
	}
	for _, side := range []struct {
		name     string
		scale    analyze.ScaleSummary
		users    analyze.UserBehaviorSummary
		backfill analyze.BackfillSummary
	}{
		{"frontier", cmp.ScaleA, cmp.UsersA, cmp.BackfillA},
		{"andes", cmp.ScaleB, cmp.UsersB, cmp.BackfillB},
	} {
		s := fed.Members[side.name].Summaries
		if side.scale != s.Scale || side.users != s.Users || side.backfill != s.Backfill {
			t.Errorf("%s: comparison %+v %+v %+v, want the member's summaries %+v %+v %+v",
				side.name, side.scale, side.users, side.backfill, s.Scale, s.Users, s.Backfill)
		}
	}
	// The comparison layer reproduces the §4.3 contrasts.
	if cmp.ScaleB.MedianNodes > cmp.ScaleA.MedianNodes {
		t.Errorf("Andes median nodes %v > Frontier %v", cmp.ScaleB.MedianNodes, cmp.ScaleA.MedianNodes)
	}
	if cmp.UsersB.MeanFailedShare >= cmp.UsersA.MeanFailedShare {
		t.Errorf("Andes failed share %v ≥ Frontier %v", cmp.UsersB.MeanFailedShare, cmp.UsersA.MeanFailedShare)
	}
	// The comparison chart embeds a valid spec.
	page, err := os.ReadFile(fed.ComparisonChartPath)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := plot.SpecFromHTML(page)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Series) != 2 || len(spec.Categories) != 5 {
		t.Fatalf("comparison chart shape: %d series, %d categories", len(spec.Series), len(spec.Categories))
	}
	// Each member's bars are the numbers its facts.json states, and the
	// agent that answers for the member answers from those facts.
	for i, name := range []string{"frontier", "andes"} {
		art := fed.Members[name]
		data, err := os.ReadFile(art.FactsPath)
		if err != nil {
			t.Fatal(err)
		}
		var facts llm.Facts
		if err := json.Unmarshal(data, &facts); err != nil {
			t.Fatal(err)
		}
		want := []float64{facts.SmallShortShare, facts.OverestimateShare,
			facts.MedianUseRatio, facts.MeanFailedShare, facts.BackfilledShare}
		if s := spec.Series[i]; s.Name != name || !slices.Equal(s.Y, want) {
			t.Errorf("comparison series %d: %s %v, want %s's facts.json %v", i, s.Name, s.Y, name, want)
		}
		if art.Facts(name) != facts {
			t.Errorf("%s: the agent's facts %+v differ from facts.json %+v", name, art.Facts(name), facts)
		}
		reply := llm.NewAgent(art.Facts(name)).Ask("what should we tune first?", "")
		if reply.Topic != llm.TopicRecommend || !strings.Contains(reply.Text, "Ranked policy recommendations for "+name) {
			t.Errorf("%s agent: %s reply\n%s", name, reply.Topic, reply.Text)
		}
	}
	// Federated index links both members.
	index, err := os.ReadFile(fed.IndexPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"frontier/dashboard.html", "andes/dashboard.html", "federated-comparison.html"} {
		if !strings.Contains(string(index), want) {
			t.Errorf("federated index missing %q", want)
		}
	}
	// The LLM cross-facility narrative exists and names both systems.
	compare, err := os.ReadFile(fed.ComparePath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(compare), "overestimating") {
		t.Errorf("federated compare lacks the shared over-estimation finding:\n%s", compare)
	}
}

// TestFederatedIndexEscapesMemberName: a member's name is its system
// name, so markup in it must reach the federated index as text, in the
// heading and in the link to its dashboard.
func TestFederatedIndexEscapesMemberName(t *testing.T) {
	name := `a<b & "c"`
	fed := &FederatedArtifacts{
		ComparisonChartPath: filepath.Join("out", "federated-comparison.html"),
		Members:             map[string]*Artifacts{name: {Jobs: 3, Records: 5}},
	}
	index := string(federatedIndex([]string{name}, fed))
	want := "<h2>a&lt;b &amp; &#34;c&#34;</h2>\n" +
		`<p><a href="a&lt;b &amp; &#34;c&#34;/dashboard.html">dashboard</a> — 3 jobs, 5 records</p>` + "\n"
	if !strings.Contains(index, want) {
		t.Errorf("member entry not escaped:\n%s", index)
	}
	if strings.Contains(index, name) {
		t.Error("federated index carries the raw member name")
	}
}

func TestRunFederatedErrors(t *testing.T) {
	cfg := baseConfig(t)
	if _, err := RunFederated(context.Background(), t.TempDir(), []Config{cfg}); err == nil {
		t.Error("single member: want error")
	}
	if _, err := RunFederated(context.Background(), "", []Config{cfg, cfg}); err == nil {
		t.Error("no out dir: want error")
	}
	dup := baseConfig(t)
	if _, err := RunFederated(context.Background(), t.TempDir(), []Config{cfg, dup}); err == nil {
		t.Error("duplicate system names: want error")
	}
	unnamed := baseConfig(t)
	unnamed.SystemName = ""
	if _, err := RunFederated(context.Background(), t.TempDir(), []Config{cfg, unnamed}); err == nil {
		t.Error("unnamed member: want error")
	}
	// Every member is checked before any runs: the first never wrote.
	for _, dir := range []string{cfg.OutputDir, cfg.CacheDir} {
		if _, err := os.Stat(dir); !errors.Is(err, fs.ErrNotExist) {
			t.Errorf("a refused federation left %s behind (stat: %v)", dir, err)
		}
	}
}
