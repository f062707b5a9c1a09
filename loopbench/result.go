package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// line is the contract's result object, the last line of stdout.
type line struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// provenance is what makes a number regenerable: the host it came
// from, the exact command, the inputs and the output digests.
type provenance struct {
	Command    []string          `json:"command"`
	Workload   string            `json:"workload"`
	Seed       int64             `json:"seed"`
	Traced     bool              `json:"traced"`
	GitHead    string            `json:"git_head"`
	GoVersion  string            `json:"go_version"`
	GOOS       string            `json:"goos"`
	GOARCH     string            `json:"goarch"`
	NProc      int               `json:"nproc"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	Started    string            `json:"started"`
	Fixtures   map[string]fxInfo `json:"fixtures"`
	Ops        int               `json:"ops"`
	WorkUnits  int64             `json:"work_units"`
	Digests    map[string]string `json:"digests"`
}

type fxInfo struct {
	Requests  int   `json:"requests"`
	Rows      int   `json:"rows"`
	FileBytes int64 `json:"file_bytes"`
}

// result is everything one run reports; the contract's line is a
// projection of it.
type result struct {
	Provenance provenance `json:"provenance"`

	SetupS      float64            `json:"-"`
	EndToEnd    map[string]value   `json:"end_to_end"`
	Timing      map[string]value   `json:"loop_timing"` // measured and compared, not gated
	PerLayer    map[string]value   `json:"per_layer,omitempty"`
	Diagnostics map[string]float64 `json:"diagnostics"`
	Counts      map[string]int64   `json:"counts,omitempty"` // exact-repeat program counters from the loop
	SelfTime    []selfRow          `json:"self_time,omitempty"`

	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	FailFrac  float64 `json:"fail_frac"`
	FirstFail string  `json:"first_failure,omitempty"`
}

type selfRow struct {
	Phase   string  `json:"phase"`
	Span    string  `json:"span"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
	Share   float64 `json:"share_of_phase"` // self time over the phase's wall time
}

func gitHead() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown" // an exported checkout has no .git
	}
	return strings.TrimSpace(string(out))
}

func newResult(e *env) *result {
	r := &result{
		Provenance: provenance{
			Command:    append([]string{"go", "run", "./loopbench"}, os.Args[1:]...),
			Workload:   e.cfg.workload,
			Seed:       e.cfg.seed,
			Traced:     e.cfg.traced,
			GitHead:    gitHead(),
			GoVersion:  runtime.Version(),
			GOOS:       runtime.GOOS,
			GOARCH:     runtime.GOARCH,
			NProc:      runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			Started:    time.Now().UTC().Format(time.RFC3339),
			Fixtures:   map[string]fxInfo{},
			Digests:    e.digests,
		},
		EndToEnd:    map[string]value{},
		Timing:      map[string]value{},
		Diagnostics: map[string]float64{},
	}
	for _, fx := range []*fixture{e.flow, e.contended} {
		r.Provenance.Fixtures[fx.name] = fxInfo{
			Requests: len(fx.requests), Rows: fx.rows, FileBytes: fx.fileBytes,
		}
	}
	return r
}

// fill derives the end-to-end metrics from the untraced loop.
func (r *result) fill(e *env, m measured) {
	ops := len(m.opMS)
	r.Provenance.Ops = ops
	r.Provenance.WorkUnits = m.work
	r.Counts = m.counts
	r.Attempted, r.Failed, r.FirstFail = ops, min(m.failed, ops), m.firstFail
	if e.coldFailed { // a cold result measured outside the loop is one more checked output
		r.Attempted++
		r.Failed++
		if r.FirstFail == "" {
			r.FirstFail = "cold result differs from the reference"
		}
	}
	r.FailFrac = float64(r.Failed) / float64(r.Attempted)

	measured := map[string]float64{
		"setup_s":         r.SetupS,
		"cold_s":          e.coldS,
		"op_p50_ms":       median(m.opMS),
		"work_per_s":      float64(m.work) / m.wall.Seconds(),
		"cpu_ms_per_op":   ms(m.cpu) / float64(ops),
		"alloc_mb_per_op": float64(m.allocBytes) / float64(ops) / (1 << 20),
		"live_heap_mb":    m.liveHeapMB,
	}
	for _, d := range endToEnd {
		r.EndToEnd[d.Name] = value{measured[d.Name], d.Unit}
	}
	for _, d := range loopTimings {
		r.Timing[d.Name] = value{measured[d.Name], d.Unit}
	}

	label, tail := tailPercentile(m.opMS)
	r.Diagnostics["loop_wall_s"] = m.wall.Seconds()
	r.Diagnostics["op_samples"] = float64(ops)
	r.Diagnostics["op_"+label+"_ms"] = tail
	r.Diagnostics["host.peak_rss_mb"] = peakRSSMB()
}

// contractLine projects the result onto the four keys the driver reads.
func (r *result) contractLine() line {
	metrics := r.EndToEnd
	if r.Provenance.Traced {
		metrics = r.PerLayer
	}
	return line{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: metrics}
}

// report prints the human-readable view: every metric by name with its
// unit, then where the numbers came from.
func (r *result) report(w io.Writer) {
	p := &r.Provenance
	fmt.Fprintf(w, "loopbench %s seed %d (%s)\n", p.Workload, p.Seed, map[bool]string{false: "untraced", true: "traced"}[p.Traced])
	fmt.Fprintf(w, "  host: nproc %d, GOMAXPROCS %d, %s %s/%s, git %s\n", p.NProc, p.GOMAXPROCS, p.GoVersion, p.GOOS, p.GOARCH, p.GitHead)
	fmt.Fprintf(w, "  command: %s\n", strings.Join(p.Command, " "))
	for _, name := range sortedKeys(p.Fixtures) {
		fx := p.Fixtures[name]
		fmt.Fprintf(w, "  fixture %s: %d requests, %d rows, %d bytes\n", name, fx.Requests, fx.Rows, fx.FileBytes)
	}
	fmt.Fprintf(w, "  loop: %d ops, %d work units, closed loop\n", p.Ops, p.WorkUnits)
	for _, name := range sortedKeys(p.Digests) {
		fmt.Fprintf(w, "  digest %s = %s\n", name, p.Digests[name])
	}
	fmt.Fprintln(w, "end-to-end (untraced loop), gated:")
	for _, d := range endToEnd {
		v := r.EndToEnd[d.Name]
		fmt.Fprintf(w, "  %-18s %14.4f %-4s bound %2.0f%%\n", d.Name, v.Value, v.Unit, 100*d.Bound)
	}
	fmt.Fprintf(w, "  %-18s %14.4f ratio (%d failed of %d attempted; any rise is a regression)\n", "fail_frac", r.FailFrac, r.Failed, r.Attempted)
	if r.FirstFail != "" {
		fmt.Fprintf(w, "  first failure: %s\n", r.FirstFail)
	}
	fmt.Fprintln(w, "loop timing (untraced loop), diagnostic:")
	for _, d := range loopTimings {
		v := r.Timing[d.Name]
		note := ""
		if d.Name == "op_p50_ms" {
			note = fmt.Sprintf("  (n=%d)", p.Ops)
		}
		fmt.Fprintf(w, "  %-18s %14.4f %-4s%s\n", d.Name, v.Value, v.Unit, note)
	}
	fmt.Fprintln(w, "other diagnostics:")
	for _, name := range sortedKeys(r.Diagnostics) {
		fmt.Fprintf(w, "  %-18s %14.4f\n", name, r.Diagnostics[name])
	}
	for _, name := range sortedKeys(r.Counts) {
		fmt.Fprintf(w, "  count %-28s %d\n", name, r.Counts[name])
	}
	if !p.Traced {
		return
	}
	fmt.Fprintln(w, "per-layer (traced run):")
	for _, d := range perLayer() {
		v := r.PerLayer[d.Name]
		fmt.Fprintf(w, "  %-36s %16.4f %s\n", d.Name, v.Value, v.Unit)
	}
	fmt.Fprintln(w, "span self time (span minus children), by phase of the traced run:")
	fmt.Fprintf(w, "  %-8s %-26s %8s %12s %12s %7s\n", "phase", "span", "count", "total ms", "self ms", "share")
	for _, row := range r.SelfTime {
		fmt.Fprintf(w, "  %-8s %-26s %8d %12.2f %12.2f %6.1f%%\n", row.Phase, row.Span, row.Count, row.TotalMS, row.SelfMS, 100*row.Share)
	}
}

// save writes the full result beside the traces, for later diffing.
func (r *result) save(outDir string) error {
	kind := "result"
	if r.Provenance.Traced {
		kind = "layers"
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-%s-seed%d.json", kind, r.Provenance.Workload, r.Provenance.Seed)
	return os.WriteFile(filepath.Join(outDir, name), append(b, '\n'), 0o644)
}

// selfRows orders the totals by phase in run order, largest self time
// first within a phase.
func selfRows(totals map[spanKey]*spanTotals) []selfRow {
	order := map[string]int{"setup": 0, "cold": 1, "loop": 2, "op": 3, "probe": 4}
	rows := make([]selfRow, 0, len(totals))
	for key, t := range totals {
		row := selfRow{Phase: key.Phase, Span: key.Name, Count: t.Count, TotalMS: ms(t.Total), SelfMS: ms(t.Self)}
		if phase := totals[spanKey{key.Phase, key.Phase}]; phase != nil && phase.Total > 0 { // "run" has no such span
			row.Share = float64(t.Self) / float64(phase.Total)
		}
		rows = append(rows, row)
	}
	rank := func(r selfRow) int {
		if o, ok := order[r.Phase]; ok {
			return o
		}
		return len(order)
	}
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		if rank(a) != rank(b) {
			return rank(a) < rank(b)
		}
		if a.SelfMS != b.SelfMS {
			return a.SelfMS > b.SelfMS
		}
		return a.Span < b.Span
	})
	return rows
}
