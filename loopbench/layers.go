package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"slurmsight/internal/analyze"
	"slurmsight/internal/core"
	"slurmsight/internal/curate"
	"slurmsight/internal/llm"
	"slurmsight/internal/obs"
	"slurmsight/internal/plot"
	"slurmsight/internal/raster"
	"slurmsight/internal/sacct"
	"slurmsight/internal/sched"
	"slurmsight/internal/sched/tournament"
	"slurmsight/internal/slurm"
)

// The layer probe is the traced run's second half: the harness calls
// each layer's public entry points directly, one at a time, on the same
// fixtures the loops use, with a stopwatch and a span around each call.
// Counts come from an obs.Registry handed in through the layer's own
// Metrics/Instrument parameter. It runs the same way whatever workload
// was asked for, so every traced run reports every per-layer metric.

type layerValues map[string]float64

// timed runs f under a child span of parent and returns its wall time.
func timed(parent *obs.Span, name string, f func() error) (time.Duration, error) {
	sp := parent.Child(name)
	t0 := time.Now()
	err := f()
	d := time.Since(t0)
	sp.End()
	return d, err
}

func counter(reg *obs.Registry, name string) float64 { return float64(reg.Counter(name).Value()) }

func probeLayers(e *env) (layerValues, error) {
	root := e.root.Child("probe")
	defer root.End()
	v := layerValues{}
	for _, probe := range []func(*env, layerValues, *obs.Span) error{probeSched, probeStore, probeFlow, probeServe} {
		if err := probe(e, v, root); err != nil {
			return nil, err
		}
	}
	return v, nil
}

// probeSched runs each standard arm alone and in sequence — a
// concurrent wall clock is not a per-arm cost — then the tournament
// that races them, then the advisor round trip.
func probeSched(e *env, v layerValues, root *obs.Span) error {
	fx := e.contended
	var solo time.Duration
	for _, spec := range tournament.DefaultSpecs() {
		cfg, err := spec.Config(fx.system, e.cfg.seed)
		if err != nil {
			return err
		}
		reg := obs.NewRegistry()
		cfg.Metrics = reg
		sim, err := sched.New(cfg)
		if err != nil {
			return err
		}
		d, err := timed(root, "sched.run", func() error {
			_, err := sim.Run(fx.requests, sched.Options{})
			return err
		})
		if err != nil {
			return fmt.Errorf("arm %s: %w", spec.Name, err)
		}
		solo += d
		events, attempts := counter(reg, "sched_events_processed_total"), counter(reg, "sched_backfill_attempts_total")
		p := "sched." + spec.Name + "."
		v[p+"run_ms"] = ms(d)
		v[p+"events"] = events
		v[p+"passes"] = counter(reg, "sched_passes_total")
		v[p+"ns_per_event"] = float64(d) / events
		v[p+"backfill_start_frac"] = 0
		if attempts > 0 {
			v[p+"backfill_start_frac"] = counter(reg, "sched_backfill_starts_total") / attempts
		}
	}

	var sc *tournament.Scorecard
	d, err := timed(root, "tournament.run", func() (err error) {
		sc, err = tournament.Run(tournament.Input{
			Specs: tournament.DefaultSpecs(), Reqs: fx.requests, System: fx.system, Seed: e.cfg.seed,
		})
		return err
	})
	if err != nil {
		return err
	}
	v["tournament.run_ms"] = ms(d)
	v["tournament.overlap_frac"] = float64(solo) / (float64(d) * float64(runtime.NumCPU()))

	raw, err := sc.EncodeJSON()
	if err != nil {
		return err
	}
	adv, err := startAdvisor()
	if err != nil {
		return err
	}
	defer adv.stop()
	client := llm.NewClient(adv.base, "")
	var calls []float64
	for i := 0; i < e.sz.probeLLMCalls; i++ {
		d, err := timed(root, "llm.evolve_call", func() error {
			_, err := client.Evolve(context.Background(), llm.EvolveRequest{Scorecard: raw, Target: "default", Round: i})
			return err
		})
		if err != nil {
			return err
		}
		calls = append(calls, ms(d))
	}
	v["llm.evolve_call_ms"] = median(calls)
	return nil
}

// probeStore walks the data plane bottom-up on flow6m: colstore open,
// warm and projected read; sacct write, scan, add and finalize; slurm
// parse and encode; curate at one worker and at nproc; analyze observe
// and merge; chart, HTML and PNG rendering.
func probeStore(e *env, v layerValues, root *obs.Span) error {
	fx := e.flow
	rows := float64(fx.rows)
	nproc := runtime.NumCPU()
	v["tracegen.generate_ms"] = ms(fx.generateTime)
	v["tracegen.requests"] = float64(len(fx.requests))
	v["colstore.dump_ns_per_row"] = float64(fx.dumpTime) / rows
	v["colstore.bytes_per_row"] = float64(fx.fileBytes) / rows

	var opens []float64
	for i := 0; i < 5; i++ {
		d, err := timed(root, "colstore.open", func() error {
			st, err := sacct.OpenBinary(fx.path)
			if err != nil {
				return err
			}
			return st.Close()
		})
		if err != nil {
			return err
		}
		opens = append(opens, ms(d))
	}
	v["colstore.open_ms"] = median(opens)

	warm, err := sacct.OpenBinary(fx.path)
	if err != nil {
		return err
	}
	defer warm.Close()
	u0 := readUsage()
	d, err := timed(root, "colstore.warm", warm.Warm)
	if err != nil {
		return err
	}
	v["colstore.warm_ns_per_row"] = float64(d) / rows
	v["colstore.warm_allocs_per_row"] = float64(readUsage().allocN-u0.allocN) / rows

	lazy, err := sacct.OpenBinary(fx.path)
	if err != nil {
		return err
	}
	reg := obs.NewRegistry()
	lazy.Instrument(reg)
	var n int
	d, err = timed(root, "colstore.projected_write", func() (err error) {
		n, err = lazy.Write(io.Discard, sacct.Query{Fields: []string{"JobID", "User", "State", "Elapsed"}, IncludeSteps: true})
		return err
	})
	lazy.Close()
	if err != nil {
		return err
	}
	v["colstore.projected_ns_per_row"] = float64(d) / float64(n)
	v["colstore.columns_read"] = counter(reg, "colstore_columns_read_total")
	v["colstore.bytes_read"] = counter(reg, "colstore_bytes_read_total")

	month := e.sz.thirdMonth()
	monthQ := sacct.Query{Start: month.Start(), End: month.Next().Start(), IncludeSteps: true}
	period := filepath.Join(e.dir, "probe-"+sacct.PeriodFileName(month.String()))
	d, err = timed(root, "sacct.write", func() error {
		f, err := os.Create(period)
		if err != nil {
			return err
		}
		w := bufio.NewWriter(f)
		if n, err = warm.Write(w, monthQ); err == nil {
			err = w.Flush()
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		return err
	})
	if err != nil {
		return err
	}
	monthRows := float64(n)
	v["sacct.write_ns_per_row"] = float64(d) / monthRows

	all := sacct.Query{IncludeSteps: true}
	scan, err := timed(root, "sacct.scan", func() error {
		n = 0
		for _, err := range warm.Scan(all) {
			if err != nil {
				return err
			}
			n++
		}
		return nil
	})
	if err != nil {
		return err
	}
	v["sacct.scan_ns_per_row"] = float64(scan) / float64(n)

	var bundle *analyze.Bundle
	d, err = timed(root, "analyze.collect", func() (err error) {
		bundle, err = analyze.Collect(warm.Scan(all), core.TimelineBucket)
		return err
	})
	if err != nil {
		return err
	}
	// Collect pulls the scan, so observing is what it adds to one.
	v["analyze.observe_ns_per_row"] = float64(d-scan) / float64(n)

	var monthly []*analyze.Bundle
	for _, m := range e.sz.flowMonths() {
		b, err := analyze.Collect(warm.Scan(sacct.Query{Start: m.Start(), End: m.Next().Start(), IncludeSteps: true}), core.TimelineBucket)
		if err != nil {
			return err
		}
		monthly = append(monthly, b)
	}
	d, _ = timed(root, "analyze.tree_merge", func() error {
		analyze.TreeMerge(core.TimelineBucket, monthly, nproc)
		return nil
	})
	v["analyze.merge_ms"] = ms(d)

	var chartT, htmlT, pngT time.Duration
	for _, key := range figureKeys() {
		var chart *plot.Chart
		d, err := timed(root, "core.chart", func() (err error) {
			chart, err = core.ChartFromBundle(key, fx.system.Name, bundle, 50, 0)
			return err
		})
		if err != nil {
			return err
		}
		chartT += d
		d, err = timed(root, "plot.html", func() error { _, err := plot.HTML(chart, 960, 540); return err })
		if err != nil {
			return err
		}
		htmlT += d
		d, err = timed(root, "raster.png", func() error { _, err := raster.PNG(chart, 960, 540); return err })
		if err != nil {
			return err
		}
		pngT += d
	}
	v["core.chart_ms"], v["plot.html_ms"], v["raster.png_ms"] = ms(chartT), ms(htmlT), ms(pngT)

	u0 = readUsage()
	d, err = timed(root, "slurm.parse", func() error {
		f, err := os.Open(period)
		if err != nil {
			return err
		}
		defer f.Close()
		rd, err := slurm.NewByteRecordReader(f)
		if err != nil {
			return err
		}
		n = 0
		for _, err := range rd.All() {
			if err != nil {
				return err
			}
			n++
		}
		return nil
	})
	if err != nil {
		return err
	}
	v["slurm.parse_ns_per_row"] = float64(d) / float64(n)
	v["slurm.parse_allocs_per_row"] = float64(readUsage().allocN-u0.allocN) / float64(n)

	recs, err := warm.Select(monthQ)
	if err != nil {
		return err
	}
	fields := slurm.SelectedNames()
	d, err = timed(root, "slurm.encode", func() error {
		for i := range recs {
			if _, err := slurm.EncodeRecord(&recs[i], fields); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	v["slurm.encode_ns_per_row"] = float64(d) / float64(len(recs))

	for _, c := range []struct {
		metric  string
		workers int
	}{{"curate.stream_ns_per_row", 1}, {"curate.parallel_ns_per_row", nproc}} {
		opts := curate.DefaultOptions()
		opts.Workers = c.workers
		opts.Metrics = obs.NewRegistry()
		var rep curate.Report
		d, err := timed(root, "curate.stream_file", func() error {
			_, err := curate.StreamFileParallel(period, period+".csv", opts, &rep, nil)
			return err
		})
		if err != nil {
			return err
		}
		v[c.metric] = float64(d) / float64(rep.Total)
		v["curate.kept_frac"] = counter(opts.Metrics, "curate_rows_kept_total") / counter(opts.Metrics, "curate_rows_read_total")
	}

	// Appends mutate the store, so they go last: in-order batches, late
	// batches, and the Finalize each is followed by on the serving path.
	var add, addLate time.Duration
	var addRows, lateRows int
	var finalize []float64
	for c, batch := range liveRecords(e.sz, e.cfg.seed, fx, e.sz.probeCycles) {
		d, err := timed(root, "sacct.add", func() error { return warm.Add(batch...) })
		if err != nil {
			return err
		}
		fin, _ := timed(root, "sacct.finalize", func() error { warm.Finalize(); return nil })
		if lateBatch(c) {
			addLate, lateRows = addLate+d, lateRows+len(batch)
			finalize = append(finalize, ms(fin))
		} else {
			add, addRows = add+d, addRows+len(batch)
		}
	}
	if addRows == 0 || lateRows == 0 {
		return fmt.Errorf("probe needs in-order and late batches, got %d/%d rows", addRows, lateRows)
	}
	v["sacct.add_ns_per_row"] = float64(add) / float64(addRows)
	v["sacct.add_late_ns_per_row"] = float64(addLate) / float64(lateRows)
	v["sacct.finalize_ms"] = median(finalize)
	return nil
}

// probeFlow times one core.Run, then makes the same stage calls
// directly, one after the other — obtain, curate with the collectors
// attached, merge, chart and page per figure — and reports the
// difference: what the dataflow engine and the workflow's other tasks
// add, less what running two period tasks at once saves (on two cores
// the saving wins and the number is negative).
func probeFlow(e *env, v layerValues, root *obs.Span) error {
	_, _, whole, err := e.flowOp(-2, 0, root)
	if err != nil {
		return err
	}
	nproc := runtime.NumCPU()
	dir := filepath.Join(e.dir, "probe-staged")
	data := filepath.Join(dir, "data")
	if err := os.MkdirAll(data, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	sp := root.Child("staged")
	t0 := time.Now()
	err = func() error {
		store, _, err := sacct.OpenFile(e.flow.path)
		if err != nil {
			return err
		}
		defer store.Close()
		fetcher := &sacct.Fetcher{Store: store, CacheDir: filepath.Join(dir, "cache"), Workers: 2}
		if err := os.MkdirAll(fetcher.CacheDir, 0o755); err != nil {
			return err
		}
		var files []sacct.FetchedFile
		if _, err := timed(sp, "staged.fetch", func() (err error) {
			files, err = fetcher.Fetch(context.Background(), sacct.FetchSpec{
				Granularity: sacct.Monthly, Start: e.sz.flowStart, End: e.sz.flowEnd,
			})
			return err
		}); err != nil {
			return err
		}
		var monthly []*analyze.Bundle
		for _, f := range files {
			opts := curate.DefaultOptions()
			opts.Workers = nproc
			shards := analyze.NewShardSet(core.TimelineBucket)
			var rep curate.Report
			if _, err := timed(sp, "staged.curate", func() error {
				_, err := curate.StreamFileParallel(f.Path, filepath.Join(data, "slurm-"+f.Period+".csv"), opts, &rep,
					func(chunk int) func(*slurm.Record) bool {
						sb := shards.Shard(chunk)
						return func(rec *slurm.Record) bool { sb.Observe(rec); return true }
					})
				return err
			}); err != nil {
				return err
			}
			b := analyze.NewBundle(core.TimelineBucket)
			shards.MergeIntoN(b, nproc)
			monthly = append(monthly, b)
		}
		merged := analyze.NewBundle(core.TimelineBucket)
		timed(sp, "staged.merge", func() error {
			merged.Merge(analyze.TreeMerge(core.TimelineBucket, monthly, nproc))
			return nil
		})
		_, err = timed(sp, "staged.figures", func() error {
			for _, key := range figureKeys() {
				chart, err := core.ChartFromBundle(key, e.flow.system.Name, merged, 50, 0)
				if err != nil {
					return err
				}
				page, err := plot.HTML(chart, 960, 540)
				if err != nil {
					return err
				}
				spec, err := chart.JSON()
				if err != nil {
					return err
				}
				if err := os.WriteFile(filepath.Join(data, key+".html"), page, 0o644); err != nil {
					return err
				}
				if err := os.WriteFile(filepath.Join(data, key+".json"), spec, 0o644); err != nil {
					return err
				}
			}
			return nil
		})
		return err
	}()
	staged := time.Since(t0)
	sp.End()
	if err != nil {
		return err
	}
	v["dataflow.overhead_ms"] = ms(whole - staged)
	return nil
}

// probeServe times each request class on the handler without a socket,
// the same hit over loopback, a replay of the head of the read mix for
// the cache counters, and the head of the append stream.
func probeServe(e *env, v layerValues, root *obs.Span) error {
	q, err := startQueryd(e.flow, 1)
	if err != nil {
		return err
	}
	defer q.stop()
	keys, filterAt, figAt := readKeys(e.sz, e.flow)
	reg := q.srv.Metrics()

	get := func(span, url string) (float64, string, error) {
		var cache string
		d, err := timed(root, span, func() error {
			w := direct(q.h, "GET", url, nil)
			cache = w.Header().Get("X-Cache")
			if w.Code != http.StatusOK {
				return fmt.Errorf("GET %s: status %d", url, w.Code)
			}
			return nil
		})
		return float64(d), cache, err
	}

	var hits, misses []float64
	for i := 0; i < hotKeys+e.sz.probeHits; i++ {
		ns, cache, err := get("serve.query", keys[i%hotKeys].url)
		if err != nil {
			return err
		}
		if cache == "hit" {
			hits = append(hits, ns/1e3)
		}
	}
	for i := 0; i < e.sz.probeMisses; i++ {
		ns, cache, err := get("serve.query", keys[hotKeys+(i*37)%distinctKeys].url)
		if err != nil {
			return err
		}
		if cache == "miss" {
			misses = append(misses, ns/1e6)
		}
	}
	if len(hits) == 0 || len(misses) == 0 {
		return fmt.Errorf("probe saw %d hits and %d misses", len(hits), len(misses))
	}
	v["serve.hit_us"], v["serve.miss_query_ms"] = median(hits), median(misses)

	var overHTTP []float64
	var buf bytes.Buffer
	for i := 0; i < e.sz.probeHits; i++ {
		url := keys[i%hotKeys].url
		direct(q.h, "GET", url, nil) // the misses above may have evicted it
		d, err := timed(root, "serve.http", func() error { _, err := q.get(url, &buf); return err })
		if err != nil {
			return err
		}
		overHTTP = append(overHTTP, float64(d)/1e3)
	}
	v["serve.http_overhead_us"] = median(overHTTP) - v["serve.hit_us"]

	h0, m0, ev0 := counter(reg, "serve_cache_hits_total"), counter(reg, "serve_cache_misses_total"), counter(reg, "serve_cache_evictions_total")
	replay := readSchedule(e.sz, e.cfg.seed, len(keys), filterAt, figAt)[0]
	for _, k := range replay[:min(len(replay), 10*e.sz.probeHits)] {
		if _, _, err := get("serve.replay", keys[k].url); err != nil {
			return err
		}
	}
	dh, dm := counter(reg, "serve_cache_hits_total")-h0, counter(reg, "serve_cache_misses_total")-m0
	v["serve.cache_hit_frac"] = dh / (dh + dm)
	v["serve.cache_evictions"] = counter(reg, "serve_cache_evictions_total") - ev0

	gen0 := q.store.Generation()
	figs := figureKeys()
	var ingest, collect, render []float64
	for c, body := range encodeBatches(liveRecords(e.sz, e.cfg.seed, e.flow, e.sz.probeCycles)) {
		d, err := timed(root, "serve.ingest", func() error {
			if w := direct(q.h, "POST", "/ingest", body); w.Code != http.StatusOK {
				return fmt.Errorf("ingest: status %d", w.Code)
			}
			return nil
		})
		if err != nil {
			return err
		}
		ingest = append(ingest, ms(d))
		// First figure after the append re-collects the bundle; the
		// next one at the same generation only renders.
		ns, _, err := get("serve.figure_collect", "/figures/"+figs[c%len(figs)]+".json")
		if err != nil {
			return err
		}
		collect = append(collect, ns/1e6)
		ns, _, err = get("serve.figure_render", "/figures/"+figs[(c+1)%len(figs)]+".json")
		if err != nil {
			return err
		}
		render = append(render, ns/1e6)
	}
	v["serve.ingest_batch_ms"], v["serve.figure_collect_ms"], v["serve.figure_render_ms"] = median(ingest), median(collect), median(render)
	v["serve.generations_per_batch"] = float64(q.store.Generation()-gen0) / float64(e.sz.probeCycles)
	return nil
}

// fillTraced completes a traced run's result: the probe's values, the
// loop-derived ones, the span self-time table and the Chrome trace.
func (r *result) fillTraced(e *env, plain, traced measured, v layerValues) error {
	v["obs.trace_overhead_frac"] = traced.wall.Seconds()/plain.wall.Seconds() - 1
	v["host.peak_rss_mb"] = peakRSSMB()
	v["host.nproc"] = float64(runtime.NumCPU())
	_, v["loadgen.op_p99_ms"] = tailPercentile(plain.opMS)
	for _, d := range loopTimings {
		v["loadgen."+d.Name] = r.Timing[d.Name].Value
	}
	r.PerLayer = map[string]value{}
	for _, d := range perLayer() {
		x, ok := v[d.Name]
		if !ok {
			return fmt.Errorf("layer probe produced no %s", d.Name)
		}
		r.PerLayer[d.Name] = value{x, d.Unit}
	}
	r.Attempted += len(traced.opMS)
	r.Failed += min(traced.failed, len(traced.opMS))
	if r.FirstFail == "" {
		r.FirstFail = traced.firstFail
	}
	r.FailFrac = float64(r.Failed) / float64(r.Attempted)
	r.Diagnostics["traced_loop_wall_s"] = traced.wall.Seconds()

	r.SelfTime = selfRows(selfTimes(e.tr.Snapshot()))
	path := filepath.Join(e.cfg.outDir, fmt.Sprintf("trace-%s-seed%d.json", e.cfg.workload, e.cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := e.tr.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
