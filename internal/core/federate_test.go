package core

import (
	"context"
	"encoding/json"
	"hash/fnv"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

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

// runTestFederation runs the Frontier (AI on, canned analyst) + Andes
// federation the federated tests share.
func runTestFederation(t *testing.T) *FederatedArtifacts {
	t.Helper()
	analyst := httptest.NewServer(llm.NewServer("sk-fed").Handler())
	defer analyst.Close()
	client := llm.NewClient(analyst.URL, "sk-fed")

	outDir := t.TempDir()
	frontierCfg := baseConfig(t)
	frontierCfg.OutputDir = "" // federated default placement
	frontierCfg.EnableAI = true
	frontierCfg.LLM = client

	andesCfg := baseConfig(t)
	andesCfg.SystemName = "andes"
	andesCfg.Store = testAndesStore(t)
	andesCfg.OutputDir = ""

	fed, err := RunFederated(context.Background(), outDir, []Member{
		{Config: frontierCfg}, {Config: andesCfg},
	})
	if err != nil {
		t.Fatal(err)
	}
	return fed
}

// TestRunFederatedGoldenDigest pins the bytes of the cross-facility
// layer: the Comparison as JSON, federated-comparison.html, the canned
// analyst's federated-compare.md and every member's facts.json. The
// constant was recorded at 349efae, where RunFederated compared two
// Select'ed record slices; the bundle path must reproduce it.
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
	const want = 0xd0bfb5ca62ad02ec
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
	// The comparison layer reproduces the §4.3 contrasts.
	cmp := fed.Comparison
	if cmp == nil {
		t.Fatal("no comparison")
	}
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
		t.Errorf("comparison chart shape: %d series, %d categories", len(spec.Series), len(spec.Categories))
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
	if _, err := RunFederated(context.Background(), t.TempDir(), []Member{{Config: cfg}}); err == nil {
		t.Error("single member: want error")
	}
	if _, err := RunFederated(context.Background(), "", []Member{{Config: cfg}, {Config: cfg}}); err == nil {
		t.Error("no out dir: want error")
	}
	dup := baseConfig(t)
	if _, err := RunFederated(context.Background(), t.TempDir(), []Member{{Config: cfg}, {Config: dup}}); err == nil {
		t.Error("duplicate system names: want error")
	}
	unnamed := baseConfig(t)
	unnamed.SystemName = ""
	if _, err := RunFederated(context.Background(), t.TempDir(), []Member{{Config: cfg}, {Config: unnamed}}); err == nil {
		t.Error("unnamed member: want error")
	}
}
