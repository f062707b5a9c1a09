// Command streambench measures the streaming data plane's footprint in
// isolation: peak RSS and wall time of one full curate→analyze pass over
// a trace file, contrasted against the pre-refactor materialise-and-
// rescan path. Generation and measurement run as separate invocations so
// /proc/self/status VmHWM reflects only the analysis pass:
//
//	streambench -gen -rows 1000000 -path trace-1m.txt
//	streambench -run -mode stream -path trace-1m.txt
//	streambench -run -mode slices -path trace-1m.txt
//	streambench -run -mode parallel -workers 4 -path trace-1m.txt -json BENCH_ingest.json
//	streambench -convert -path trace-1m.txt
//	streambench -run -mode textload -path trace-1m.txt -json BENCH_ingest.json
//	streambench -run -mode colstore -path trace-1m.txt.colstore -json BENCH_ingest.json
//
// The -gen phase simulates a seed workload once and tiles its encoded
// rows to the requested count, so multi-million-row inputs cost seconds
// rather than a multi-million-job scheduler replay. Mode parallel runs
// the chunked zero-alloc byte ingest plane at -workers chunk decoders;
// -json appends the run's numbers (rows, workers, ns/op, allocs/op,
// peak RSS) to a machine-readable array so the perf trajectory is
// diffable across PRs. EXPERIMENTS.md "Parallel chunked ingest" records
// the sweep.
//
// -convert rewrites a text trace as a binary columnar shard file
// (<path>.colstore). The textload/colstore run pair then measures the
// reload tax head-to-head: reload_ms is time-to-usable-Store (full text
// parse vs O(open + footer)), proj_ms is a two-field projected query
// (colstore decodes only those columns; columns_read/bytes_read/
// bytes_mapped snapshot the projection before the full scan), and
// scan_ms is a full materialising scan.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"slurmsight/internal/analyze"
	"slurmsight/internal/cluster"
	"slurmsight/internal/curate"
	"slurmsight/internal/sacct"
	"slurmsight/internal/sched"
	"slurmsight/internal/slurm"
	"slurmsight/internal/tracegen"
)

const bucket = 6 * time.Hour

func main() {
	log.SetFlags(0)
	log.SetPrefix("streambench: ")

	var (
		gen       = flag.Bool("gen", false, "generate a trace file and exit")
		run       = flag.Bool("run", false, "run one analysis pass over -path")
		convert   = flag.Bool("convert", false, "rewrite the text trace at -path as <path>.colstore and exit")
		sweep     = flag.Bool("sweep", false, "run the rows × workers × mode matrix and append a sweep/v1 block to -json")
		rows      = flag.Int("rows", 1_000_000, "data rows to generate with -gen or -sweep")
		genMonths = flag.Int("gen-months", 1, "calendar months the generated workload spans (one colstore shard each)")
		mode      = flag.String("mode", "stream", "analysis path with -run: stream, slices, parallel, textload, or colstore")
		path      = flag.String("path", "trace.txt", "trace file (with -sweep, the base name derived files hang off)")
		out       = flag.String("out", "", "output path with -convert (default <path>.colstore)")
		seed      = flag.Int64("seed", 41, "workload RNG seed for -gen")
		workers   = flag.Int("workers", 1, "chunk decoders with -mode parallel (0 = GOMAXPROCS); the store-reload modes read with one cursor whatever it says")
		jsonOut   = flag.String("json", "", "append the run's result to this JSON array file")

		sweepWorkers = flag.String("sweep-workers", "1,2,4,8", "comma-separated worker counts for -sweep")
		sweepModes   = flag.String("sweep-modes", "parallel,colstore", "comma-separated modes for -sweep")
		sweepReps    = flag.Int("sweep-reps", 1, "repetitions per sweep cell (best wall time is kept)")

		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the measured pass to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile after the measured pass to this file")
	)
	flag.Parse()

	if *workers == 0 {
		*workers = runtime.GOMAXPROCS(0)
		log.Printf("workers: %d (auto = GOMAXPROCS)", *workers)
	}

	if err := dispatch(*gen, *run, *convert, *sweep, dispatchArgs{
		path: *path, out: *out, rows: *rows, months: *genMonths, seed: *seed,
		mode: *mode, workers: *workers, jsonOut: *jsonOut,
		sweepWorkers: *sweepWorkers, sweepModes: *sweepModes, sweepReps: *sweepReps,
		cpuprofile: *cpuprofile, memprofile: *memprofile,
	}); err != nil {
		log.Fatal(err)
	}
}

type dispatchArgs struct {
	path, out                string
	rows, months             int
	seed                     int64
	mode                     string
	workers                  int
	jsonOut                  string
	sweepWorkers, sweepModes string
	sweepReps                int
	cpuprofile, memprofile   string
}

// dispatch runs the selected phase, bracketing it with the optional
// pprof captures (a deferred stop, so profiles survive error paths —
// log.Fatal in main would skip them).
func dispatch(gen, run, convert, sweep bool, a dispatchArgs) error {
	if a.cpuprofile != "" {
		f, err := os.Create(a.cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if a.memprofile != "" {
		defer func() {
			f, err := os.Create(a.memprofile)
			if err != nil {
				log.Printf("memprofile: %v", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Printf("memprofile: %v", err)
			}
		}()
	}
	switch {
	case gen:
		return generate(a.path, a.rows, a.months, a.seed)
	case convert:
		return convertTrace(a.path, a.out)
	case sweep:
		return runSweep(a)
	case run:
		return measure(a.path, a.mode, a.workers, a.jsonOut)
	default:
		return fmt.Errorf("pick one of -gen, -convert, -sweep, or -run")
	}
}

// convertTrace loads a text trace and rewrites it in the binary columnar
// shard format, reporting the size delta. Conversion is a one-time cost;
// every later reload pays only the footer parse.
func convertTrace(path, out string) error {
	if out == "" {
		out = path + ".colstore"
	}
	t0 := time.Now()
	st, malformed, err := sacct.LoadFile(path)
	if err != nil {
		return err
	}
	if malformed > 0 {
		fmt.Fprintf(os.Stderr, "warning: %d malformed rows dropped\n", malformed)
	}
	loadWall := time.Since(t0)
	t1 := time.Now()
	if err := st.DumpBinaryFile(out); err != nil {
		return err
	}
	textSt, _ := os.Stat(path)
	binSt, _ := os.Stat(out)
	fmt.Printf("converted %s -> %s: %d records, %.1f MB -> %.1f MB (load %s, encode %s)\n",
		path, out, st.Len(), float64(textSt.Size())/(1<<20), float64(binSt.Size())/(1<<20),
		loadWall.Round(time.Millisecond), time.Since(t1).Round(time.Millisecond))
	return nil
}

// generate simulates a seed workload spanning `months` calendar months
// (each month becomes one colstore shard), then tiles its encoded rows until the file holds n data
// rows. Tiled copies keep their field values; only row identity
// repeats, which the figure collectors do not key on.
func generate(path string, n, months int, seed int64) error {
	if months < 1 {
		months = 1
	}
	p := tracegen.FrontierProfile()
	p.JobsPerDay, p.Users = 300, 150
	start := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	reqs, err := tracegen.Generate([]tracegen.Phase{{
		Profile: p, Start: start, End: start.AddDate(0, months, 0).Add(-24 * time.Hour),
	}}, seed)
	if err != nil {
		return err
	}
	sim, err := sched.New(sched.DefaultConfig(cluster.Frontier()))
	if err != nil {
		return err
	}
	res, err := sim.Run(reqs, sched.Options{EmitSteps: true})
	if err != nil {
		return err
	}
	recs := append(append([]slurm.Record{}, res.Jobs...), res.Steps...)
	sort.SliceStable(recs, func(i, j int) bool {
		return slurm.CompareJobID(recs[i].ID, recs[j].ID) < 0
	})

	fields := slurm.SelectedNames()
	lines := make([]string, len(recs))
	for i := range recs {
		if lines[i], err = slurm.EncodeRecord(&recs[i], fields); err != nil {
			return err
		}
	}

	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintln(w, slurm.Header(fields))
	for i := 0; i < n; i++ {
		fmt.Fprintln(w, lines[i%len(lines)])
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	st, _ := os.Stat(path)
	fmt.Printf("wrote %s: %d rows (%d distinct), %.1f MB\n",
		path, n, len(lines), float64(st.Size())/(1<<20))
	return nil
}

// phaseSplit breaks one pass's wall time into the parts that scale
// with workers (decode), the reduction (merge), and the serial tail
// (finalize) — the raw material for the Amdahl fit in the sweep block.
// For the store-reload modes decode is the full materialising scan and
// finalize the projected query; reload keeps its own field.
type phaseSplit struct {
	DecodeMS   float64 `json:"decode_ms"`
	MergeMS    float64 `json:"merge_ms"`
	FinalizeMS float64 `json:"finalize_ms"`
}

// benchResult is one measurement in the BENCH_ingest.json array: the
// stable schema the CI artifact and EXPERIMENTS.md sweeps share.
type benchResult struct {
	Mode         string     `json:"mode"`
	Rows         int64      `json:"rows"`
	Workers      int        `json:"workers"`
	GoMaxProcs   int        `json:"gomaxprocs"`
	NumCPU       int        `json:"num_cpu"`
	WallMS       float64    `json:"wall_ms"`
	PhaseMS      phaseSplit `json:"phase_ms"`
	NsPerOp      float64    `json:"ns_per_op"`
	AllocsPerOp  float64    `json:"allocs_per_op"`
	PeakRSSBytes int64      `json:"peak_rss_bytes"`

	// Digest fingerprints the pass's observable output (FNV-64a over
	// the figure results, or over the full Write text for the store
	// modes), so a sweep can assert byte-parity across worker counts.
	Digest string `json:"digest,omitempty"`

	// Store-reload modes (textload, colstore) split the wall into the
	// reload (time-to-usable-Store), a two-field projected query, and a
	// full scan. The colstore byte counters snapshot the
	// projection point, proving it touched only the selected columns.
	ReloadMS    float64 `json:"reload_ms,omitempty"`
	ProjMS      float64 `json:"proj_ms,omitempty"`
	ScanMS      float64 `json:"scan_ms,omitempty"`
	ColumnsRead int64   `json:"columns_read,omitempty"`
	BytesRead   int64   `json:"bytes_read,omitempty"`
	BytesMapped int64   `json:"bytes_mapped,omitempty"`
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// measure runs one analysis pass and reports wall time, per-phase
// split, allocation totals, and the process high-water RSS.
func measure(path, mode string, workers int, jsonOut string) error {
	t0 := time.Now()
	res, err := measureCell(path, mode, workers)
	if err != nil {
		return err
	}
	wall := time.Since(t0)

	var mstats runtime.MemStats
	runtime.ReadMemStats(&mstats)
	hwm, err := vmHWM()
	if err != nil {
		return err
	}
	fmt.Printf("mode=%s workers=%d records=%d wall=%s decode=%.1fms merge=%.1fms finalize=%.1fms peak_rss=%.1fMB total_alloc=%.1fMB mallocs=%d\n",
		mode, workers, res.Rows, wall.Round(time.Millisecond),
		res.PhaseMS.DecodeMS, res.PhaseMS.MergeMS, res.PhaseMS.FinalizeMS,
		float64(hwm)/(1<<20), float64(mstats.TotalAlloc)/(1<<20), mstats.Mallocs)
	if jsonOut == "" {
		return nil
	}
	res.WallMS = ms(wall)
	res.PeakRSSBytes = hwm
	if res.Rows > 0 {
		res.NsPerOp = float64(wall.Nanoseconds()) / float64(res.Rows)
		res.AllocsPerOp = float64(mstats.Mallocs) / float64(res.Rows)
	}
	return appendResult(jsonOut, res)
}

// measureCell runs one (mode, workers) pass and returns the partially
// filled result: rows, phase split, host shape, and the reload extras
// for the store modes. Wall/RSS/alloc totals are the caller's, since a
// sweep runs many cells in one process.
func measureCell(path, mode string, workers int) (benchResult, error) {
	res := benchResult{
		Mode:       mode,
		Workers:    workers,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
	switch mode {
	case "textload", "colstore":
		r, err := measureReload(path, mode, workers)
		if err != nil {
			return res, err
		}
		rows := r.Rows
		r.Mode, r.Workers, r.GoMaxProcs, r.NumCPU = res.Mode, res.Workers, res.GoMaxProcs, res.NumCPU
		res = r
		res.Rows = rows
		// Decode is the full scan; the projected query stands in for
		// finalize; reload keeps its own field.
		res.PhaseMS = phaseSplit{DecodeMS: r.ScanMS, FinalizeMS: r.ProjMS}
	case "stream":
		b := analyze.NewBundle(bucket)
		var rep curate.Report
		td := time.Now()
		for rec, err := range curate.StreamFile(path, "", curate.DefaultOptions(), &rep) {
			if err != nil {
				return res, err
			}
			b.Observe(rec)
		}
		res.PhaseMS.DecodeMS = ms(time.Since(td))
		tf := time.Now()
		touchBundle(b)
		res.PhaseMS.FinalizeMS = ms(time.Since(tf))
		res.Rows = b.Records
		res.Digest = bundleDigest(b)
	case "parallel":
		b := analyze.NewBundle(bucket)
		shards := analyze.NewShardSet(bucket)
		opts := curate.DefaultOptions()
		opts.Workers = workers
		var rep curate.Report
		td := time.Now()
		if _, err := curate.StreamFileParallel(path, "", opts, &rep,
			func(chunk int) func(*slurm.Record) bool {
				sb := shards.Shard(chunk)
				return func(rec *slurm.Record) bool {
					sb.Observe(rec)
					return true
				}
			}); err != nil {
			return res, err
		}
		res.PhaseMS.DecodeMS = ms(time.Since(td))
		tm := time.Now()
		shards.MergeIntoN(b, workers)
		res.PhaseMS.MergeMS = ms(time.Since(tm))
		tf := time.Now()
		touchBundle(b)
		res.PhaseMS.FinalizeMS = ms(time.Since(tf))
		res.Rows = b.Records
		res.Digest = bundleDigest(b)
	case "slices":
		td := time.Now()
		recs, _, err := curate.LoadRecordsFile(path)
		if err != nil {
			return res, err
		}
		res.PhaseMS.DecodeMS = ms(time.Since(td))
		tm := time.Now()
		sort.SliceStable(recs, func(i, j int) bool {
			return slurm.CompareJobID(recs[i].ID, recs[j].ID) < 0
		})
		res.PhaseMS.MergeMS = ms(time.Since(tm))
		tf := time.Now()
		touchSlices(recs)
		res.PhaseMS.FinalizeMS = ms(time.Since(tf))
		res.Rows = int64(len(recs))
	default:
		return res, fmt.Errorf("unknown -mode %q", mode)
	}
	return res, nil
}

// measureReload times the store-reload path: time-to-usable-Store, a
// two-field projected query, and a full scan of every column. workers
// only labels the result: a store reads its sealed shards through one
// cursor per scan. For colstore it also snapshots the read counters right
// after the projection, before the full scan inflates them — bytes_read
// at that point is the proof that the projection touched only the
// User/Elapsed/JobID regions. The digest hashes the projected text plus a
// scan fingerprint.
func measureReload(path, mode string, workers int) (benchResult, error) {
	var r benchResult
	t0 := time.Now()
	var st *sacct.Store
	var err error
	switch mode {
	case "textload":
		st, _, err = sacct.LoadFile(path)
	case "colstore":
		st, err = sacct.OpenBinary(path)
	}
	if err != nil {
		return r, err
	}
	defer st.Close()
	r.ReloadMS = ms(time.Since(t0))

	h := fnv.New64a()
	t1 := time.Now()
	if _, err := st.Write(h, sacct.Query{Fields: []string{"User", "Elapsed"}}); err != nil {
		return r, err
	}
	r.ProjMS = ms(time.Since(t1))
	if stats, ok := st.ColstoreStats(); ok {
		r.ColumnsRead = stats.ColumnsRead
		r.BytesRead = stats.BytesRead
		r.BytesMapped = stats.BytesMapped
	}

	t2 := time.Now()
	for rec, err := range st.Scan(sacct.Query{IncludeSteps: true}) {
		if err != nil {
			return r, err
		}
		r.Rows++
		io.WriteString(h, rec.ID.String())
		io.WriteString(h, rec.Submit.UTC().Format(time.RFC3339))
	}
	r.ScanMS = ms(time.Since(t2))
	r.Digest = fmt.Sprintf("%016x", h.Sum64())
	fmt.Printf("mode=%s workers=%d reload=%.1fms proj=%.1fms scan=%.1fms columns_read=%d bytes_read=%d bytes_mapped=%d\n",
		mode, workers, r.ReloadMS, r.ProjMS, r.ScanMS, r.ColumnsRead, r.BytesRead, r.BytesMapped)
	return r, nil
}

// bundleDigest fingerprints every figure surface the workflow renders:
// two passes that produce the same digest would emit byte-identical
// figure specs. The reclaimable and per-class summaries are deliberately
// excluded — they fold float sums whose partial-sum grouping shifts with
// the chunk count (last-ulp drift only), while every figure surface is
// integer counts or appended points and therefore exact at any width.
func bundleDigest(b *analyze.Bundle) string {
	h := fnv.New64a()
	enc := json.NewEncoder(h)
	for _, v := range []any{
		b.Records, b.Jobs,
		b.Volume.Result(), b.Scale.Result(), b.Waits.Result(),
		b.Users.Result(50), b.Backfill.Result(),
		b.Timeline.Result(),
	} {
		if err := enc.Encode(v); err != nil {
			return "unencodable:" + err.Error()
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// appendResult folds one measurement into the JSON array at path,
// creating the file on first use. Entries the current schema does not
// know (older results, sweep blocks) pass through untouched, so a
// regeneration never silently drops history. Each -run invocation is a
// fresh process, so VmHWM in every entry reflects only its own pass.
func appendResult(path string, v any) error {
	var list []json.RawMessage
	if data, err := os.ReadFile(path); err == nil {
		// A malformed file starts a fresh array rather than failing the run.
		_ = json.Unmarshal(data, &list)
	}
	raw, err := json.Marshal(v)
	if err != nil {
		return err
	}
	list = append(list, raw)
	data, err := json.MarshalIndent(list, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// touchBundle forces every figure result the workflow consumes.
func touchBundle(b *analyze.Bundle) {
	_ = b.Volume.Result()
	_ = b.Scale.Result()
	_ = b.Waits.Result()
	_ = b.Users.Result(50)
	_ = b.Backfill.Result()
	_ = b.Reclaim.Result()
	_ = b.Timeline.Result()
	_ = b.Classes.Result()
}

// touchSlices runs the multi-pass builders the old workflow consumed.
func touchSlices(recs []slurm.Record) {
	_ = analyze.JobStepVolume(recs)
	_ = analyze.NodesVsElapsed(recs)
	_ = analyze.WaitTimes(recs)
	_ = analyze.StatesPerUser(recs, 50)
	_ = analyze.RequestedVsActual(recs)
	_ = analyze.ReclaimableNodeHours(recs)
	_ = analyze.Timeline(recs, bucket)
	_ = analyze.PerClass(recs)
}

// vmHWM reads the process peak resident set from /proc/self/status.
func vmHWM() (int64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			if err != nil {
				return 0, err
			}
			return kb << 10, nil
		}
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}
