package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// selfCheckRuns is the size of each of the two sets, per workload.
const selfCheckRuns = 10

// selfCheck asks whether the benchmark agrees with itself: it runs two
// interleaved sets (A, B, A, B, …) of this same build as child
// processes, every run on another seed, and holds each gated metric to
// the acceptance driver's rule — the quartile spread of each set and the
// difference of the two medians within its bound. The loop timings get
// the same arithmetic and no verdict. A traced pair on one seed then has
// to agree exactly on the counts that are functions of the seed alone.
// Everything it prints goes to w, so SELFCHECK.txt is its stdout.
func selfCheck(w io.Writer, outDir string, smoke bool) (bool, error) {
	exe, err := os.Executable()
	if err != nil {
		return false, err
	}
	started := time.Now()
	fmt.Fprintf(w, "loopbench self-check, %s: nproc %d, GOMAXPROCS %d, %s %s/%s, git %s\n",
		started.UTC().Format(time.RFC3339), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, gitHead())
	fmt.Fprintf(w, "command: %s\n", strings.Join(append([]string{"go", "run", "./loopbench"}, os.Args[1:]...), " "))
	fmt.Fprintf(w, "per workload: set A seeds 1-%d and set B seeds %d-%d, interleaved, then a traced pair on seed 1\n", selfCheckRuns, selfCheckRuns+1, 2*selfCheckRuns)
	fmt.Fprintln(w, "spread = (q3-q1)/median with Python's statistics.quantiles(n=4); a gated metric fails if a spread (setup_s")
	fmt.Fprintln(w, "excepted, as in the acceptance driver) or the difference of the two medians exceeds its bound, or if any op")
	fmt.Fprintln(w, "failed. The loop timings are diagnostics: same arithmetic against the 10% they could not hold, no verdict.")
	child := func(workload string, seed int64, traced bool) (*result, error) {
		args := []string{"-workload", workload, "-seed", fmt.Sprint(seed), "-out", outDir}
		kind := "result"
		if traced {
			args, kind = append(args, "-trace", "1"), "layers"
		}
		if smoke {
			args = append(args, "-smoke")
		}
		cmd := exec.Command(exe, args...)
		var stderr strings.Builder
		cmd.Stderr = &stderr
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("%s seed %d: %w\n%s", workload, seed, err, stderr.String())
		}
		b, err := os.ReadFile(filepath.Join(outDir, fmt.Sprintf("%s-%s-seed%d.json", kind, workload, seed)))
		if err != nil {
			return nil, err
		}
		var r result
		return &r, json.Unmarshal(b, &r)
	}

	ok := true
	for _, wl := range workloads {
		var sets [2][]*result
		for i := 0; i < selfCheckRuns; i++ {
			for s := range sets {
				seed := int64(1 + s*selfCheckRuns + i)
				r, err := child(wl.Name, seed, false)
				if err != nil {
					return false, err
				}
				sets[s] = append(sets[s], r)
				fmt.Fprintf(os.Stderr, "selfcheck: %s set %c run %d/%d (seed %d) done\n", wl.Name, 'A'+s, i+1, selfCheckRuns, seed)
			}
		}
		if !reportSets(w, wl.Name, sets) {
			ok = false
		}

		var pair [2]*result
		for s := range pair {
			if pair[s], err = child(wl.Name, 1, true); err != nil {
				return false, err
			}
		}
		if !reportExact(w, wl.Name, pair) {
			ok = false
		}
	}
	verdict := "PASS"
	if !ok {
		verdict = "FAIL"
	}
	fmt.Fprintf(w, "\nselfcheck: %s (%d runs in %s)\n", verdict, len(workloads)*(2*selfCheckRuns+2), time.Since(started).Round(time.Second))
	return ok, nil
}

// spread is the acceptance driver's steadiness measure: the distance
// between the first and third quartile as a share of the median.
func spread(xs []float64) (q1, med, q3, rel float64) {
	q1, med, q3 = quantile(xs, 0.25), quantile(xs, 0.5), quantile(xs, 0.75)
	if med != 0 {
		rel = (q3 - q1) / math.Abs(med)
	}
	return
}

func reportSets(w io.Writer, workload string, sets [2][]*result) bool {
	ok := true
	p := sets[0][0].Provenance
	fmt.Fprintf(w, "\n== %s: %d + %d runs, nproc %d, GOMAXPROCS %d, %s, git %s ==\n",
		workload, len(sets[0]), len(sets[1]), p.NProc, p.GOMAXPROCS, p.GoVersion, p.GitHead)
	fmt.Fprintf(w, "%-16s %-4s | %36s | %36s | %8s %6s  %s\n", "metric", "unit",
		"set A  q1 / median / q3  (spread)", "set B  q1 / median / q3  (spread)", "Δmedian", "bound", "verdict")
	row := func(d metricDef, get func(*result) float64, gated bool) {
		var vals [2][]float64
		for s := range sets {
			for _, r := range sets[s] {
				vals[s] = append(vals[s], get(r))
			}
		}
		aq1, amed, aq3, aspread := spread(vals[0])
		bq1, bmed, bq3, bspread := spread(vals[1])
		delta := (bmed - amed) / amed
		// The contract requires setup_s in the gated list and holds it to
		// the median rule alone, so its spread is printed, not judged.
		widest := max(aspread, bspread)
		judged := d.Name != "setup_s"
		verdict := "ok"
		switch {
		case !gated && (math.Abs(delta) > d.Bound || widest > d.Bound):
			verdict = "diagnostic (beyond 10%)"
		case !gated:
			verdict = "diagnostic"
		case math.Abs(delta) > d.Bound:
			verdict, ok = "FAIL: medians disagree beyond the bound", false
		case judged && widest > d.Bound:
			verdict, ok = "FAIL: spread beyond the bound", false
		case judged && widest > d.Bound/3:
			verdict = "ok (spread above a third of the bound)"
		}
		fmt.Fprintf(w, "%-16s %-4s | %9.4g %9.4g %9.4g (%5.2f%%) | %9.4g %9.4g %9.4g (%5.2f%%) | %+7.2f%% %5.0f%%  %s\n",
			d.Name, d.Unit, aq1, amed, aq3, 100*aspread, bq1, bmed, bq3, 100*bspread, 100*delta, 100*d.Bound, verdict)
		for s := range vals {
			fmt.Fprintf(w, "    %c:", 'A'+s)
			for _, x := range vals[s] {
				fmt.Fprintf(w, " %.5g", x)
			}
			fmt.Fprintln(w)
		}
	}
	for _, d := range endToEnd {
		row(d, func(r *result) float64 { return r.EndToEnd[d.Name].Value }, true)
	}
	for _, d := range loopTimings {
		row(d, func(r *result) float64 { return r.Timing[d.Name].Value }, false)
	}
	// How long the fixed work took: the loop, and the whole child process.
	row(metricDef{Name: "loop_wall_s", Unit: "s", Bound: 0.10}, func(r *result) float64 { return r.Diagnostics["loop_wall_s"] }, false)
	row(metricDef{Name: "run_wall_s", Unit: "s", Bound: 0.10}, func(r *result) float64 { return r.Diagnostics["run_wall_s"] }, false)
	failed, attempted := 0, 0
	for s := range sets {
		for _, r := range sets[s] {
			failed, attempted = failed+r.Failed, attempted+r.Attempted
		}
	}
	verdict := "ok"
	if failed > 0 {
		verdict, ok = "FAIL: fail_frac must be 0", false
	}
	fmt.Fprintf(w, "%-16s ratio | %d failed of %d attempted over both sets  %s\n", "fail_frac", failed, attempted, verdict)
	return ok
}

// exactLayer names the per-layer metrics that are pure functions of the
// seed; the loop's own counters (result.Counts) are held to the same.
func exactLayer(name string) bool {
	switch {
	case name == "colstore.columns_read", name == "colstore.bytes_read", name == "serve.generations_per_batch":
		return true
	case strings.HasPrefix(name, "sched."):
		return strings.HasSuffix(name, ".passes") || strings.HasSuffix(name, ".events")
	}
	return false
}

func reportExact(w io.Writer, workload string, pair [2]*result) bool {
	ok := true
	n := 0
	fmt.Fprintf(w, "-- %s: traced pair on seed 1, counts that must repeat exactly --\n", workload)
	differ := func(name string, a, b any) {
		ok = false
		fmt.Fprintf(w, "  FAIL %s: %v vs %v\n", name, a, b)
	}
	for _, d := range perLayer() {
		if !exactLayer(d.Name) {
			continue
		}
		n++
		if a, b := pair[0].PerLayer[d.Name].Value, pair[1].PerLayer[d.Name].Value; a != b {
			differ(d.Name, a, b)
		}
	}
	// With two clients racing, serve-read's hit/miss split depends on
	// which request reaches the cache first; one client is exact.
	if workload != "serve-read" {
		for _, name := range sortedKeys(pair[0].Counts) {
			n++
			if a, b := pair[0].Counts[name], pair[1].Counts[name]; a != b {
				differ(name, a, b)
			}
		}
	}
	for _, name := range sortedKeys(pair[0].Provenance.Digests) {
		n++
		if a, b := pair[0].Provenance.Digests[name], pair[1].Provenance.Digests[name]; a != b {
			differ("digest "+name, a, b)
		}
	}
	fmt.Fprintf(w, "  %d counts and digests compared; obs.trace_overhead_frac %.4f and %.4f\n", n,
		pair[0].PerLayer["obs.trace_overhead_frac"].Value, pair[1].PerLayer["obs.trace_overhead_frac"].Value)
	return ok
}
