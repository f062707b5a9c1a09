package curate

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sync/atomic"
	"time"

	"slurmsight/internal/obs"
	"slurmsight/internal/pool"
	"slurmsight/internal/slurm"
)

// ShardFunc hands StreamFileParallel the record consumer for one chunk.
// It is called at most once per chunk, possibly from several goroutines
// concurrently (guard shared state); the consumer it returns is then
// called only from that chunk's worker, in chunk row order, with records
// that alias decoder scratch, TRES maps included, which the next row
// rewrites (Record.Clone to retain). Returning false from the
// consumer stops the whole parallel stream early. A nil ShardFunc (or a
// nil returned consumer) decodes for the sidecar and Report only.
type ShardFunc func(chunk int) func(*slurm.Record) bool

// StreamFileParallel is the curate stage: it cleans one period file on
// opts.Workers concurrent chunk decoders. Malformed rows are dropped and
// counted into rep; when csvPath is non-empty the normalised CSV
// rendition of every kept row is written in the same pass. The file is
// split into newline-aligned byte ranges (slurm.ChunkScanner), each
// chunk tokenises and validates its rows on the zero-alloc byte decode
// path and normalises and spills its sidecar rows through a rowWriter
// (also allocation-free per row), and a single ordered writer goroutine
// appends the spills to csvPath in chunk order, so the sidecar is
// byte-identical at every width. Consumers observe records in-shard via
// shard; combine per-chunk results in chunk index order to reproduce
// file order.
//
// Counters in rep are exact on success (every row decoded exactly
// once); after a terminal error or an early consumer stop they reflect
// only the rows processed before the stop. Malformed-row line numbers
// are chunk-relative except in chunk 0. The first terminal error in
// chunk order is returned, wrapped with the input path.
func StreamFileParallel(inPath, csvPath string, opts Options, rep *Report, shard ShardFunc) (chunks int, err error) {
	cs, err := slurm.NewChunkScanner(inPath, opts.Workers)
	if err != nil {
		return 0, fmt.Errorf("curate: %s: %w", inPath, err)
	}
	chunks = cs.NumChunks()

	m := chunkMetrics{
		rows:    opts.Metrics.Histogram("ingest_chunk_rows", obs.SizeBuckets),
		seconds: opts.Metrics.Histogram("ingest_chunk_seconds", obs.LatencyBuckets),
		read:    opts.Metrics.Counter("curate_rows_read_total"),
		kept:    opts.Metrics.Counter("curate_rows_kept_total"),
		dropped: opts.Metrics.Counter("curate_rows_dropped_total"),
	}
	opts.Metrics.Counter("ingest_chunks_total").Add(int64(chunks))

	var out *os.File
	var bw *bufio.Writer
	if csvPath != "" {
		out, err = os.Create(csvPath)
		if err != nil {
			return chunks, fmt.Errorf("curate: create sidecar %s: %w", csvPath, err)
		}
		bw = bufio.NewWriterSize(out, 1<<16)
		// Buffered: a failed write surfaces from finishSidecar's flush.
		bw.Write(appendSidecarHeader(nil, cs.Fields(), columnKinds(cs.Fields())))
	}
	if chunks == 0 {
		return 0, finishSidecar(out, bw, csvPath, nil)
	}

	spillPath := func(i int) string { return fmt.Sprintf("%s.part%d", csvPath, i) }
	reports := make([]Report, chunks)
	chunkErrs := make([]error, chunks)
	chunkDone := make([]chan struct{}, chunks)
	for i := range chunkDone {
		chunkDone[i] = make(chan struct{})
	}

	// The single ordered sidecar writer: as each chunk completes, in
	// chunk order, append its spill to the final file. After the first
	// failed chunk the remaining spills are only cleaned up: no row is
	// written past a terminal error.
	writerDone := make(chan error, 1)
	go func() {
		var werr error
		failed := false
		for i := 0; i < chunks; i++ {
			<-chunkDone[i]
			if chunkErrs[i] != nil {
				failed = true
			}
			if csvPath == "" {
				continue
			}
			sp := spillPath(i)
			if failed || werr != nil {
				os.Remove(sp)
				continue
			}
			f, err := os.Open(sp)
			if err != nil {
				werr = err
				continue
			}
			_, cerr := io.Copy(bw, f)
			f.Close()
			os.Remove(sp)
			if cerr != nil {
				werr = cerr
			}
		}
		writerDone <- werr
	}()

	// The decoders: min(opts.Workers, chunks), the caller's goroutine
	// among them, each taking the next chunk. Every chunk closes its
	// chunkDone whatever happened to it, because the writer waits on
	// each in turn; so no call fails, and stopped carries the stop.
	var stopped atomic.Bool
	pool.Run(chunks, opts.Workers, func(_, i int) error {
		sp := ""
		if csvPath != "" {
			sp = spillPath(i)
		}
		chunkErrs[i] = runChunk(cs, i, sp, opts, &reports[i], shard, &stopped, m)
		close(chunkDone[i])
		return nil
	})
	werr := <-writerDone
	for i := range reports {
		rep.Add(reports[i])
	}
	for _, cerr := range chunkErrs {
		if cerr != nil {
			finishSidecar(out, bw, csvPath, nil) // keep the prefix; cerr is already terminal
			return chunks, fmt.Errorf("curate: %s: %w", inPath, cerr)
		}
	}
	if err := finishSidecar(out, bw, csvPath, werr); err != nil {
		return chunks, err
	}
	return chunks, nil
}

// finishSidecar flushes and closes the final sidecar file, folding in
// any earlier writer error and attributing the result to csvPath.
func finishSidecar(out *os.File, bw *bufio.Writer, csvPath string, werr error) error {
	if out == nil {
		return nil
	}
	if ferr := bw.Flush(); werr == nil {
		werr = ferr
	}
	if cerr := out.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return fmt.Errorf("curate: sidecar %s: %w", csvPath, werr)
	}
	return nil
}

// chunkMetrics carries the stream's resolved instruments; counters are
// added once per chunk, not per row, so the atomics stay off the decode
// hot path.
type chunkMetrics struct {
	rows    *obs.Histogram
	seconds *obs.Histogram
	read    *obs.Counter
	kept    *obs.Counter
	dropped *obs.Counter
}

// runChunk decodes one chunk to completion: counting into local,
// spilling sidecar rows to spillPath (when non-empty), and feeding the
// chunk's consumer. It stops early when another chunk trips stopped.
// Sidecar spill errors are terminal unless the stream is already
// stopping, in which case they are counted into local.SidecarErrors.
func runChunk(cs *slurm.ChunkScanner, i int, spillPath string, opts Options, local *Report, shard ShardFunc, stopped *atomic.Bool, m chunkMetrics) error {
	start := time.Now()
	rr, closer, err := cs.Open(i)
	if err != nil {
		stopped.Store(true)
		return err
	}
	defer closer.Close()
	var consumer func(*slurm.Record) bool
	if shard != nil {
		consumer = shard(i)
	}
	var sf *os.File
	var sw *rowWriter
	if spillPath != "" {
		sf, err = os.Create(spillPath)
		if err != nil {
			stopped.Store(true)
			return fmt.Errorf("create sidecar shard: %w", err)
		}
		sw = newRowWriter(sf, cs.Fields())
	}

	var terminal error
	for !stopped.Load() {
		rec, err := rr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			if _, ok := err.(*slurm.RowError); ok {
				local.Total++
				local.Malformed++
				continue
			}
			terminal = err
			break
		}
		local.Total++
		if sw != nil {
			// A write error, or a normalise error — which cannot happen
			// for a row the decoder accepted.
			if terminal = sw.row(rr.Row()); terminal != nil {
				break
			}
		}
		local.Kept++
		if consumer != nil && !consumer(rec) {
			stopped.Store(true)
			break
		}
	}
	if sw != nil {
		if ferr := sw.flush(); ferr != nil {
			if terminal == nil && !stopped.Load() {
				terminal = ferr
			} else {
				local.SidecarErrors++
			}
		}
		if cerr := sf.Close(); cerr != nil {
			if terminal == nil && !stopped.Load() {
				terminal = cerr
			} else {
				local.SidecarErrors++
			}
		}
	}
	m.rows.Observe(float64(local.Total))
	m.seconds.ObserveSince(start)
	m.read.Add(int64(local.Total))
	m.kept.Add(int64(local.Kept))
	m.dropped.Add(int64(local.Malformed))
	if terminal != nil {
		stopped.Store(true)
	}
	return terminal
}
