// Package curate implements the workflow's "Curate Data" stage: it cleans
// the raw pipe-separated text the Obtain-data stage retrieved (dropping
// malformed rows, the paper's <0.002% hardware-error artifacts), applies
// unit normalisation (expanding K-suffixed counts, converting raw seconds
// to minutes for readability), and reformats the dataset to CSV for
// downstream analysis — the exact responsibilities §3.1 assigns the stage.
package curate

import (
	"fmt"
	"io"
	"strconv"
	"time"

	"slurmsight/internal/obs"
	"slurmsight/internal/pool"
	"slurmsight/internal/slurm"
)

// Options tune the normalisation pass.
type Options struct {
	// DurationsAsMinutes renders duration columns as decimal minutes
	// instead of HH:MM:SS (the paper's seconds→minutes readability
	// conversion).
	DurationsAsMinutes bool
	// ExpandCounts rewrites abbreviated counts ("9.4K") as plain
	// integers.
	ExpandCounts bool
	// Metrics, when non-nil, counts the stream's work under
	// curate_rows_read_total / curate_rows_kept_total /
	// curate_rows_dropped_total; the parallel path additionally
	// publishes ingest_chunks_total / ingest_chunk_rows /
	// ingest_chunk_seconds.
	Metrics *obs.Registry
	// Workers sets how many chunks StreamFileParallel splits a period
	// file into and decodes concurrently. Values below 2 select a
	// single chunk (the whole data region) on the same zero-alloc byte
	// decode path. Ignored by the sequential Stream/StreamFile.
	Workers int
	// Pool, when non-nil, is the shared ingest-worker budget that
	// concurrent period tasks borrow extra decoders from: each
	// StreamFileParallel always runs at least one decoder (its own
	// goroutine) and borrows up to Workers-1 more, non-blocking, so
	// the decode width adapts to how many periods are in flight. Nil
	// grants every requested worker.
	Pool *pool.Pool
}

// DefaultOptions matches the paper's preprocessing.
func DefaultOptions() Options {
	return Options{DurationsAsMinutes: true, ExpandCounts: true}
}

// Report summarises one curation run.
type Report struct {
	Total     int // data rows seen
	Kept      int // rows written/returned
	Malformed int // rows dropped
	// SidecarErrors counts CSV-sidecar flush/write/close failures that
	// could not be surfaced as stream errors because the consumer had
	// already stopped. A nonzero value means the sidecar on disk is
	// incomplete even though no error was yielded.
	SidecarErrors int
}

// Add accumulates another run's counts (e.g. per-period reports).
func (r *Report) Add(o Report) {
	r.Total += o.Total
	r.Kept += o.Kept
	r.Malformed += o.Malformed
	r.SidecarErrors += o.SidecarErrors
}

// MalformedFraction returns the dropped share of all rows.
func (r Report) MalformedFraction() float64 {
	if r.Total == 0 {
		return 0
	}
	return float64(r.Malformed) / float64(r.Total)
}

// durationFields are the columns DurationsAsMinutes rewrites.
var durationFields = map[string]bool{
	"Elapsed": true, "Timelimit": true, "Suspended": true,
	"AveCPU": true, "TotalCPU": true, "UserCPU": true, "SystemCPU": true,
}

// countFields are the columns ExpandCounts rewrites.
var countFields = map[string]bool{
	"NNodes": true, "NCPUS": true, "NTasks": true, "ReqNodes": true,
	"ReqCPUS": true, "Restarts": true, "ConsumedEnergy": true,
}

// LoadRecords reads raw pipe-separated text (with its header line),
// dropping malformed rows, and returns the clean records. This is the
// in-memory half of the stage: the analytics layer consumes its output.
// It is a collect-wrapper over Stream; callers that can consume records
// one at a time should range over Stream instead.
func LoadRecords(r io.Reader) ([]slurm.Record, Report, error) {
	var out []slurm.Record
	var rep Report
	for rec, err := range Stream(r, nil, Options{}, &rep) {
		if err != nil {
			return nil, rep, err
		}
		out = append(out, *rec)
	}
	return out, rep, nil
}

// LoadRecordsFile reads and curates one Obtain-data output file. Errors
// are attributed to the file's path.
func LoadRecordsFile(path string) ([]slurm.Record, Report, error) {
	var out []slurm.Record
	var rep Report
	for rec, err := range StreamFile(path, "", Options{}, &rep) {
		if err != nil {
			return nil, rep, err
		}
		out = append(out, *rec)
	}
	return out, rep, nil
}

// LoadRecordsFiles curates several files (one per fetched period) into a
// single record set, accumulating the report. A failure carries the
// offending file's path.
func LoadRecordsFiles(paths []string) ([]slurm.Record, Report, error) {
	var all []slurm.Record
	var rep Report
	for _, p := range paths {
		recs, r, err := LoadRecordsFile(p)
		rep.Add(r)
		if err != nil {
			return nil, rep, err
		}
		all = append(all, recs...)
	}
	return all, rep, nil
}

// ToCSV converts raw pipe-separated text to CSV, dropping malformed rows
// and applying the normalisations — the on-disk half of the stage. It
// drains Stream with the record consumer discarded.
func ToCSV(r io.Reader, w io.Writer, opts Options) (Report, error) {
	var rep Report
	for _, err := range Stream(r, w, opts, &rep) {
		if err != nil {
			return rep, err
		}
	}
	return rep, nil
}

// ToCSVFile curates inPath (pipe text) into outPath (CSV).
func ToCSVFile(inPath, outPath string, opts Options) (Report, error) {
	var rep Report
	for _, err := range StreamFile(inPath, outPath, opts, &rep) {
		if err != nil {
			return rep, err
		}
	}
	return rep, nil
}

// MinutesOf is a helper for tests and analytics reading curated CSVs: it
// parses a decimal-minutes cell back to a duration.
func MinutesOf(cell string) (time.Duration, error) {
	f, err := strconv.ParseFloat(cell, 64)
	if err != nil {
		return 0, fmt.Errorf("curate: bad minutes cell %q", cell)
	}
	return time.Duration(f * float64(time.Minute)), nil
}
