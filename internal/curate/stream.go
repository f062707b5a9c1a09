package curate

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"sync/atomic"

	"slurmsight/internal/slurm"
)

// PassStats counts the streaming stage's work since process start.
// Tests pin the data plane's single-pass properties against it: a
// workflow run over P period files with R clean rows must open exactly
// P files and decode each input row exactly once.
type PassStats struct {
	FilesOpened int64 // period files opened by StreamFile and its wrappers
	RowsDecoded int64 // data rows decoded (kept + malformed)
}

var passFiles, passRows atomic.Int64

// Stats returns the cumulative streaming-pass counters.
func Stats() PassStats {
	return PassStats{FilesOpened: passFiles.Load(), RowsDecoded: passRows.Load()}
}

// Stream curates raw pipe-separated text as a record stream: malformed
// rows are dropped and counted into rep, clean records are yielded one
// at a time. When csvw is non-nil the normalised CSV rendition of every
// kept row is written to it in the same pass, so one read of the input
// serves both the analytics consumer and the on-disk sidecar. Yielded
// records alias decoder scratch; consumers that retain them must copy.
// The sidecar's last rows are flushed when the stream ends; a flush or
// write error is yielded terminally when the consumer is still
// listening, and counted into rep.SidecarErrors when it is not (early
// consumer stop).
func Stream(r io.Reader, csvw io.Writer, opts Options, rep *Report) slurm.RecordSeq {
	return func(yield func(*slurm.Record, error) bool) {
		// Resolve the run instruments once per stream, not per row; on a
		// nil registry each is nil and every Add below is a free no-op.
		rowsRead := opts.Metrics.Counter("curate_rows_read_total")
		rowsKept := opts.Metrics.Counter("curate_rows_kept_total")
		rowsDropped := opts.Metrics.Counter("curate_rows_dropped_total")
		rr, err := slurm.NewRecordReader(r)
		if err != nil {
			yield(nil, err)
			return
		}
		var rw *rowWriter[string]
		flushed := false
		if csvw != nil {
			rw = newStringRowWriter(csvw, rr.Fields(), opts)
			rw.header()
			// One flush on every exit path. Exits that already flushed
			// (or yielded the writer's sticky error) set flushed; the
			// rest — early consumer stop, terminal decode errors — land
			// here, where an error can no longer be yielded and is
			// counted instead of dropped.
			defer func() {
				if !flushed && rw.flush() != nil {
					rep.SidecarErrors++
				}
			}()
		}
		for {
			rec, err := rr.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				var rowErr *slurm.RowError
				if errors.As(err, &rowErr) {
					passRows.Add(1)
					rowsRead.Inc()
					rowsDropped.Inc()
					rep.Total++
					rep.Malformed++
					continue
				}
				yield(nil, err)
				return
			}
			passRows.Add(1)
			rowsRead.Inc()
			rep.Total++
			if rw != nil {
				// A normalise error cannot happen for a row the decoder
				// accepted; a write error is surfaced here, so the deferred
				// flush must not count it again.
				if err := rw.row(rr.Row()); err != nil {
					flushed = rw.err != nil
					yield(nil, err)
					return
				}
			}
			rep.Kept++
			rowsKept.Inc()
			if !yield(rec, nil) {
				return
			}
		}
		if rw != nil {
			flushed = true
			if err := rw.flush(); err != nil {
				yield(nil, err)
			}
		}
	}
}

// StreamFile opens one Obtain-data period file exactly once and curates
// it as a record stream. When csvPath is non-empty the CSV sidecar is
// written during the same read. The input is closed and the sidecar
// finalised when the stream is drained (or abandoned); a close or write
// error surfaces as the stream's terminal error.
func StreamFile(inPath, csvPath string, opts Options, rep *Report) slurm.RecordSeq {
	return func(yield func(*slurm.Record, error) bool) {
		in, err := os.Open(inPath)
		if err != nil {
			yield(nil, err)
			return
		}
		passFiles.Add(1)
		defer in.Close()
		var csvOut *os.File
		var csvw io.Writer
		if csvPath != "" {
			csvOut, err = os.Create(csvPath)
			if err != nil {
				yield(nil, fmt.Errorf("curate: create sidecar %s: %w", csvPath, err))
				return
			}
			csvw = csvOut
		}
		ok := true // consumer still accepting
		for rec, err := range Stream(bufio.NewReader(in), csvw, opts, rep) {
			if err != nil {
				err = fmt.Errorf("curate: %s: %w", inPath, err)
			}
			if !yield(rec, err) {
				ok = false
				break
			}
			if err != nil {
				ok = false
				break
			}
		}
		if csvOut != nil {
			if cerr := csvOut.Close(); cerr != nil {
				if ok {
					yield(nil, fmt.Errorf("curate: close sidecar %s: %w", csvPath, cerr))
				} else {
					rep.SidecarErrors++
				}
			}
		}
	}
}
