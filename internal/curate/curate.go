// Package curate implements the workflow's "Curate Data" stage: it cleans
// the raw pipe-separated text the Obtain-data stage retrieved (dropping
// malformed rows, the paper's <0.002% hardware-error artifacts), applies
// unit normalisation (expanding K-suffixed counts, converting raw seconds
// to minutes for readability), and reformats the dataset to CSV for
// downstream analysis — the exact responsibilities §3.1 assigns the stage.
package curate

import (
	"slurmsight/internal/obs"
	"slurmsight/internal/pool"
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
	// curate_rows_dropped_total and ingest_chunks_total /
	// ingest_chunk_rows / ingest_chunk_seconds.
	Metrics *obs.Registry
	// Workers sets how many chunks StreamFileParallel splits a period
	// file into and decodes concurrently. Values below 2 select a
	// single chunk (the whole data region).
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
