package llm

import (
	"context"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"slurmsight/internal/plot"
)

func TestRegistryShape(t *testing.T) {
	reg := Registry()
	if len(reg) != 10 {
		t.Errorf("Table 2 rows = %d, want 10", len(reg))
	}
	vendors := map[string]bool{}
	for _, p := range reg {
		vendors[p.Vendor] = true
	}
	for _, v := range []string{"OpenAI", "Google", "Anthropic", "Apple", "DeepSeek",
		"Mistral", "Meta", "Microsoft", "Github"} {
		if !vendors[v] {
			t.Errorf("vendor %s missing from Table 2", v)
		}
	}
}

func TestChoosePicksGemma(t *testing.T) {
	p, err := Choose(Registry(), PaperCriteria())
	if err != nil {
		t.Fatal(err)
	}
	if p.Model != "Gemma 3" || p.Vendor != "Google" {
		t.Errorf("selected %s %s, want Google Gemma 3", p.Vendor, p.Model)
	}
}

func TestChooseCriteriaFiltering(t *testing.T) {
	// Without the lightweight preference, any free unlimited multimodal
	// API qualifies — still a Google model.
	c := PaperCriteria()
	c.PreferLightweight = false
	p, err := Choose(Registry(), c)
	if err != nil || p.Vendor != "Google" {
		t.Errorf("got %+v, %v", p, err)
	}
	// Impossible criteria: free + images + API among paid-only rows.
	none, err := Choose([]Provider{
		{Vendor: "X", HasAPI: true, Access: AccessPaid, Images: true},
	}, PaperCriteria())
	if err == nil {
		t.Errorf("want error, got %+v", none)
	}
}

func waitChart() *plot.Chart {
	return &plot.Chart{
		Title: "Job wait times 2024", XLabel: "submit time", YLabel: "wait (s)",
		Kind: plot.Scatter, YScale: plot.Log10,
		Series: []plot.Series{
			{Name: "COMPLETED", X: []float64{1, 2, 3, 4, 5, 6}, Y: []float64{30, 600, 3600, 200, 150000, 90}},
			{Name: "FAILED", X: []float64{1.5, 2.5}, Y: []float64{7200, 120000}},
		},
	}
}

func walltimeChart() *plot.Chart {
	return &plot.Chart{
		Title: "Requested vs actual walltimes", XLabel: "requested (s)", YLabel: "actual (s)",
		Kind: plot.Scatter,
		Series: []plot.Series{
			{Name: "regular", X: []float64{3600, 7200, 36000}, Y: []float64{1800, 6000, 4000}},
			{Name: "backfilled", X: []float64{3600, 1800}, Y: []float64{600, 300}, Marker: plot.Plus},
		},
	}
}

func statesChart() *plot.Chart {
	return &plot.Chart{
		Title: "Job end states per user", XLabel: "user", YLabel: "jobs",
		Kind:       plot.StackedBar,
		Categories: []string{"u1", "u2", "u3", "u4"},
		Series: []plot.Series{
			{Name: "COMPLETED", Y: []float64{100, 20, 10, 5}},
			{Name: "FAILED", Y: []float64{30, 2, 1, 0}},
			{Name: "CANCELLED", Y: []float64{10, 1, 0, 1}},
		},
	}
}

func volumeChart() *plot.Chart {
	return &plot.Chart{
		Title: "Jobs and job-steps per year", XLabel: "year", YLabel: "count",
		Kind:       plot.GroupedBar,
		Categories: []string{"2021", "2022", "2023", "2024"},
		Series: []plot.Series{
			{Name: "jobs", Y: []float64{1000, 2000, 150000, 200000}},
			{Name: "job-steps", Y: []float64{8000, 20000, 2000000, 2600000}},
		},
	}
}

func TestAnalyzeWaitChart(t *testing.T) {
	a, err := AnalyzeChart(waitChart())
	if err != nil {
		t.Fatal(err)
	}
	if a.Stats["points"] != 8 {
		t.Errorf("points = %v", a.Stats["points"])
	}
	if a.Stats["long_wait_frac"] != 0.25 { // 150000 and 120000 of 8
		t.Errorf("long_wait_frac = %v", a.Stats["long_wait_frac"])
	}
	if !strings.Contains(a.Text, "100,000 seconds") {
		t.Errorf("long-tail claim missing: %s", a.Text)
	}
	if !strings.Contains(a.Text, "COMPLETED") {
		t.Errorf("state stratification missing: %s", a.Text)
	}
	// The quantitative claims must match the data.
	if a.Stats["n_COMPLETED"] != 6 || a.Stats["n_FAILED"] != 2 {
		t.Errorf("per-state counts wrong: %+v", a.Stats)
	}
}

func TestAnalyzeWalltimeChart(t *testing.T) {
	a, err := AnalyzeChart(walltimeChart())
	if err != nil {
		t.Fatal(err)
	}
	if a.Stats["below_diagonal_frac"] != 1.0 {
		t.Errorf("below_diagonal_frac = %v", a.Stats["below_diagonal_frac"])
	}
	if !strings.Contains(a.Text, "overestimating") {
		t.Errorf("over-estimation insight missing: %s", a.Text)
	}
	if a.Stats["n_backfilled"] != 2 {
		t.Errorf("n_backfilled = %v", a.Stats["n_backfilled"])
	}
	if !strings.Contains(a.Text, "Backfilled jobs") {
		t.Errorf("backfill insight missing: %s", a.Text)
	}
	if a.Stats["median_actual_backfilled"] >= a.Stats["median_actual_regular"] {
		t.Error("backfilled median should be lower")
	}
}

func TestAnalyzeStatesChart(t *testing.T) {
	a, err := AnalyzeChart(statesChart())
	if err != nil {
		t.Fatal(err)
	}
	if a.Stats["total_jobs"] != 180 {
		t.Errorf("total_jobs = %v", a.Stats["total_jobs"])
	}
	wantFail := 45.0 / 180
	if math.Abs(a.Stats["failed_share"]-wantFail) > 1e-9 {
		t.Errorf("failed_share = %v, want %v", a.Stats["failed_share"], wantFail)
	}
	if !strings.Contains(a.Text, "disproportionately high failure") {
		t.Errorf("outlier-user insight missing for a 25%% failure mix: %s", a.Text)
	}
}

func TestAnalyzeVolumeChart(t *testing.T) {
	a, err := AnalyzeChart(volumeChart())
	if err != nil {
		t.Fatal(err)
	}
	ratio := a.Stats["step_job_ratio"]
	if ratio < 10 || ratio > 15 {
		t.Errorf("step_job_ratio = %v", ratio)
	}
	if !strings.Contains(a.Text, "steps per job") {
		t.Errorf("ratio insight missing: %s", a.Text)
	}
}

func TestAnalyzeGenericChart(t *testing.T) {
	c := &plot.Chart{
		Title: "Allocated nodes versus elapsed", XLabel: "elapsed (s)", YLabel: "nodes",
		Kind: plot.Scatter,
		Series: []plot.Series{{
			Name: "jobs",
			X:    []float64{60, 600, 3600, 36000, 86400},
			Y:    []float64{1, 8, 64, 512, 4096},
		}},
	}
	a, err := AnalyzeChart(c)
	if err != nil {
		t.Fatal(err)
	}
	if a.Stats["spearman_xy"] < 0.9 {
		t.Errorf("monotone data should give high rank correlation: %v", a.Stats["spearman_xy"])
	}
	if !strings.Contains(a.Text, "rank correlation") {
		t.Errorf("correlation claim missing: %s", a.Text)
	}
	if _, err := AnalyzeChart(&plot.Chart{}); err == nil {
		t.Error("invalid chart: want error")
	}
}

func TestCompareChartsWaitShift(t *testing.T) {
	march := waitChart()
	march.Title = "Wait times March"
	june := waitChart()
	june.Title = "Wait times June"
	// June waits are uniformly shorter; no long tail.
	for i := range june.Series {
		for j := range june.Series[i].Y {
			june.Series[i].Y[j] /= 10
		}
	}
	a, err := CompareCharts(march, june)
	if err != nil {
		t.Fatal(err)
	}
	if a.Stats["delta_median_wait_s"] >= 0 {
		t.Errorf("median delta = %v, want negative", a.Stats["delta_median_wait_s"])
	}
	if !strings.Contains(a.Text, "lower") {
		t.Errorf("direction missing: %s", a.Text)
	}
	if !strings.Contains(a.Text, "100,000 seconds") {
		t.Errorf("congestion comparison missing: %s", a.Text)
	}
}

func TestCompareDifferentCharts(t *testing.T) {
	a, err := CompareCharts(statesChart(), volumeChart())
	if err != nil {
		t.Fatal(err)
	}
	if a.Text == "" {
		t.Error("empty comparison")
	}
}

func TestDeterministicAnalysis(t *testing.T) {
	a1, _ := AnalyzeChart(waitChart())
	a2, _ := AnalyzeChart(waitChart())
	if a1.Text != a2.Text {
		t.Error("analysis is not deterministic")
	}
}

// --- API server + client integration ---

func startServer(t *testing.T) (*httptest.Server, *Server) {
	t.Helper()
	s := NewServer("sk-test")
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts, s
}

func imageFor(t *testing.T, c *plot.Chart) Image {
	t.Helper()
	img, err := EncodeImage(c.Title, []byte("png-bytes"), c)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

func TestServerInsightEndToEnd(t *testing.T) {
	ts, _ := startServer(t)
	client := NewClient(ts.URL, "sk-test")
	resp, err := client.Analyze(context.Background(), InsightPrompt, imageFor(t, walltimeChart()))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Model != "gemma-3-sim" {
		t.Errorf("model = %q", resp.Model)
	}
	if !strings.Contains(resp.Text, "overestimating") {
		t.Errorf("insight missing: %s", resp.Text)
	}
	if resp.Stats["below_diagonal_frac"] != 1.0 {
		t.Errorf("stats not transported: %+v", resp.Stats)
	}
}

func TestServerCompareEndToEnd(t *testing.T) {
	ts, _ := startServer(t)
	client := NewClient(ts.URL, "sk-test")
	resp, err := client.Analyze(context.Background(), ComparePrompt,
		imageFor(t, waitChart()), imageFor(t, walltimeChart()))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resp.Text, "Comparing") {
		t.Errorf("comparison text missing: %s", resp.Text)
	}
}

func TestServerAuth(t *testing.T) {
	ts, _ := startServer(t)
	bad := NewClient(ts.URL, "wrong-key")
	bad.MaxRetries = 0
	_, err := bad.Analyze(context.Background(), InsightPrompt, imageFor(t, waitChart()))
	if err == nil || !strings.Contains(err.Error(), "401") {
		t.Errorf("want 401, got %v", err)
	}
	none := NewClient(ts.URL, "")
	none.MaxRetries = 0
	if _, err := none.Analyze(context.Background(), InsightPrompt, imageFor(t, waitChart())); err == nil {
		t.Error("missing key should be rejected")
	}
}

func TestServerBadRequests(t *testing.T) {
	ts, _ := startServer(t)
	client := NewClient(ts.URL, "sk-test")
	client.MaxRetries = 0
	if _, err := client.Analyze(context.Background(), InsightPrompt); err == nil {
		t.Error("no images: want client-side error")
	}
	if _, err := client.Analyze(context.Background(), InsightPrompt,
		Image{Name: "x", Spec: "not json"}); err == nil {
		t.Error("bad spec: want error")
	}
	// Wrong method.
	resp, err := http.Get(ts.URL + "/v1/analyze")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/analyze = %d", resp.StatusCode)
	}
}

// TestRateLimitWithoutAuthKeysByHost: with auth off the bearer token is
// unchecked, so a client that rotates tokens is still one client.
func TestRateLimitWithoutAuthKeysByHost(t *testing.T) {
	s := NewServer()
	s.RatePerSec = 1
	s.Burst = 1
	now := time.Unix(1000, 0)
	s.Now = func() time.Time { return now }
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	ctx := context.Background()
	img := imageFor(t, waitChart())
	if _, err := NewClient(ts.URL, "token-1").Analyze(ctx, InsightPrompt, img); err != nil {
		t.Fatalf("first request: %v", err)
	}
	second := NewClient(ts.URL, "token-2")
	second.MaxRetries = 0
	_, err := second.Analyze(ctx, InsightPrompt, img)
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusTooManyRequests {
		t.Fatalf("second request under a new token: err = %v, want a 429", err)
	}
}

func TestServerRateLimitAndRetry(t *testing.T) {
	s := NewServer("sk-test")
	now := time.Unix(1000, 0)
	s.Now = func() time.Time { return now }
	s.RatePerSec = 1
	s.Burst = 2
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	client := NewClient(ts.URL, "sk-test")
	client.MaxRetries = 0
	ctx := context.Background()
	img := imageFor(t, waitChart())
	// Two requests drain the burst; the third hits 429.
	for i := 0; i < 2; i++ {
		if _, err := client.Analyze(ctx, InsightPrompt, img); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	if _, err := client.Analyze(ctx, InsightPrompt, img); err == nil {
		t.Fatal("third request should be rate-limited")
	}
	// A retrying client succeeds once the bucket refills: advance the
	// clock inside the sleep hook.
	retrying := NewClient(ts.URL, "sk-test")
	retrying.MaxRetries = 2
	retrying.Backoff = time.Millisecond
	retrying.Sleep = func(time.Duration) { now = now.Add(3 * time.Second) }
	if _, err := retrying.Analyze(ctx, InsightPrompt, img); err != nil {
		t.Fatalf("retry should recover after refill: %v", err)
	}
}

func TestClientRetriesOn5xx(t *testing.T) {
	fails := 2
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if fails > 0 {
			fails--
			http.Error(w, `{"error":"boom"}`, http.StatusBadGateway)
			return
		}
		writeJSON(w, http.StatusOK, Response{Text: "ok", Model: "m"})
	}))
	defer ts.Close()
	client := NewClient(ts.URL, "")
	client.Backoff = time.Millisecond
	client.Sleep = func(time.Duration) {}
	resp, err := client.Analyze(context.Background(), InsightPrompt, imageFor(t, waitChart()))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Text != "ok" || fails != 0 {
		t.Errorf("retry path broken: %+v, fails=%d", resp, fails)
	}
}

func TestClientModels(t *testing.T) {
	ts, _ := startServer(t)
	client := NewClient(ts.URL, "sk-test")
	models, err := client.Models(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(models) != len(Registry()) {
		t.Errorf("models = %d", len(models))
	}
}

func TestPromptsMatchPaper(t *testing.T) {
	for _, p := range []string{InsightPrompt, ComparePrompt} {
		if !strings.HasPrefix(p, "Act as a data scientist") {
			t.Errorf("prompt drifted from the paper: %q", p)
		}
	}
	if !strings.Contains(ComparePrompt, "compare and contrast") {
		t.Error("compare prompt drifted")
	}
}

func timelineChart() *plot.Chart {
	return &plot.Chart{
		Title: "System load over time on frontier", XLabel: "time", YLabel: "allocated nodes",
		Kind: plot.Line, XTime: true,
		Series: []plot.Series{
			{Name: "busy nodes", X: []float64{1, 2, 3, 4}, Y: []float64{1000, 9000, 4000, 2000}},
			{Name: "capacity", X: []float64{1, 4}, Y: []float64{9408, 9408}},
		},
	}
}

func TestAnalyzeTimelineChart(t *testing.T) {
	a, err := AnalyzeChart(timelineChart())
	if err != nil {
		t.Fatal(err)
	}
	if a.Stats["peak"] != 9000 {
		t.Errorf("peak = %v", a.Stats["peak"])
	}
	if a.Stats["capacity"] != 9408 {
		t.Errorf("capacity = %v", a.Stats["capacity"])
	}
	if a.Stats["mean_utilization"] <= 0 || a.Stats["mean_utilization"] > 1 {
		t.Errorf("mean_utilization = %v", a.Stats["mean_utilization"])
	}
	if !strings.Contains(a.Text, "saturated") {
		t.Errorf("peak saturation not narrated: %s", a.Text)
	}
	if !strings.Contains(a.Text, "early") {
		t.Errorf("peak position not narrated: %s", a.Text)
	}
	// Without the capacity series, the utilization clause is absent.
	bare := timelineChart()
	bare.Series = bare.Series[:1]
	b, err := AnalyzeChart(bare)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(b.Text, "utilization") {
		t.Errorf("capacity clause without capacity series: %s", b.Text)
	}
}
