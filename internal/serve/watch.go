package serve

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"time"

	"slurmsight/internal/obs"
)

// Watcher tails a pipe-text period file the way an accounting host
// appends one: it polls the file for growth and feeds every newly
// completed row to the server as one batch, the way POST /ingest does —
// so a queryd pointed at a live slurm-YYYY-MM.txt serves appends no
// client ever POSTs, and the resident figure bundle absorbs them like any
// other tail batch. The first line ever read is the header; another file
// at the path (rotation: a new file renamed over it) or a shrink
// (truncation) resets the tail to the top of the file, header included.
type Watcher struct {
	Path     string
	Server   *Server
	Interval time.Duration        // poll period; <= 0 means 2s
	Metrics  *obs.Registry        // nil meters nothing
	Logf     func(string, ...any) // nil discards

	file    os.FileInfo // the file the last poll read, nil until one did
	header  []byte      // header line, nil until seen
	offset  int64       // bytes read from file, the partial row included
	partial []byte      // bytes past the last newline, kept across polls
}

// Run tails the file until ctx is cancelled. A missing file is waited
// for, not an error — the watcher may start before the first period
// lands. Malformed rows are counted and skipped, matching the curation
// stage's contract; only an unreadable file or an unusable header stops
// the watcher.
func (w *Watcher) Run(ctx context.Context) error {
	interval := w.Interval
	if interval <= 0 {
		interval = 2 * time.Second
	}
	logf := w.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	polls := w.Metrics.Counter("serve_watch_polls_total")
	rows := w.Metrics.Counter("serve_watch_rows_total")
	malformed := w.Metrics.Counter("serve_watch_malformed_total")

	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		polls.Inc()
		n, bad, err := w.poll()
		if err != nil {
			return fmt.Errorf("serve: watching %s: %w", w.Path, err)
		}
		rows.Add(int64(n))
		malformed.Add(int64(bad))
		if n > 0 || bad > 0 {
			logf("watch %s: +%d rows (%d malformed), generation %d",
				w.Path, n, bad, w.Server.store.Generation())
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-ticker.C:
		}
	}
}

// poll ingests whatever complete rows have appeared since the last call.
func (w *Watcher) poll() (added, malformed int, err error) {
	f, err := os.Open(w.Path)
	if os.IsNotExist(err) {
		return 0, 0, nil // not written yet; keep waiting
	}
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return 0, 0, err
	}
	if (w.file != nil && !os.SameFile(w.file, info)) || info.Size() < w.offset {
		// Rotated or truncated: the retained offset and partial row
		// belong to other content, so start over, header included.
		w.offset, w.header, w.partial = 0, nil, nil
	}
	w.file = info
	if info.Size() == w.offset {
		return 0, 0, nil
	}
	if _, err := f.Seek(w.offset, io.SeekStart); err != nil {
		return 0, 0, err
	}
	fresh, err := io.ReadAll(f)
	if err != nil {
		return 0, 0, err
	}
	w.offset += int64(len(fresh))

	buf := append(w.partial, fresh...)
	end := bytes.LastIndexByte(buf, '\n') + 1
	complete := buf[:end]
	w.partial = bytes.Clone(buf[end:])
	if w.header == nil {
		header, rows := splitHeader(complete)
		if header == nil {
			return 0, 0, nil
		}
		w.header, complete = bytes.Clone(header), rows
	}
	batch, malformed, err := decodeRows(w.header, complete)
	if err != nil {
		return 0, 0, err
	}
	if len(batch) > 0 {
		if _, err := w.Server.appendBatch(batch); err != nil {
			return 0, malformed, err
		}
	}
	return len(batch), malformed, nil
}
