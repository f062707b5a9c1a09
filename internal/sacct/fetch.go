package sacct

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"slurmsight/internal/slurm"
)

// Granularity selects how the Obtain-data stage shards its retrievals,
// matching the workflow's date_spec argument.
type Granularity int

const (
	// Monthly fetches one file per calendar month.
	Monthly Granularity = iota
	// Yearly fetches one file per calendar year.
	Yearly
)

// String implements fmt.Stringer.
func (g Granularity) String() string {
	if g == Yearly {
		return "yearly"
	}
	return "monthly"
}

// ParseGranularity accepts the workflow's date_spec spellings.
func ParseGranularity(s string) (Granularity, error) {
	switch s {
	case "months", "monthly", "month":
		return Monthly, nil
	case "years", "yearly", "year":
		return Yearly, nil
	}
	return 0, fmt.Errorf("sacct: unknown granularity %q", s)
}

// FetchSpec parameterizes one Obtain-data run.
type FetchSpec struct {
	Granularity Granularity
	Start, End  time.Time // half-open window
	Fields      []string  // empty = full curated selection
	UseCache    bool      // reuse files already present in CacheDir

	// CorruptionRate injects malformed rows at the given probability,
	// emulating the hardware-error artifacts the paper reports in
	// <0.002% of Frontier's records; the curation stage must drop them.
	CorruptionRate float64
	// CorruptionSeed makes injection deterministic.
	CorruptionSeed int64
}

// Fetcher executes the Obtain-data stage: for each period in the window
// it queries the store and writes a pipe-separated text file into
// CacheDir, skipping periods whose file already exists when UseCache is
// set. Periods are fetched concurrently by Workers goroutines — the Go
// replacement for the paper's GNU Parallel fan-out.
type Fetcher struct {
	Store    *Store
	CacheDir string
	Workers  int
}

// FetchedFile describes one retrieved period.
type FetchedFile struct {
	Period string // "2024-03" or "2024"
	Path   string
	Rows   int  // rows written; -1 when served from cache
	Cached bool // true when the cache satisfied the period
}

// periods enumerates the period labels and their time windows.
func (s FetchSpec) periods() ([]FetchedFile, []Query, error) {
	if s.Start.IsZero() || s.End.IsZero() || !s.Start.Before(s.End) {
		return nil, nil, fmt.Errorf("sacct: fetch window is empty")
	}
	var files []FetchedFile
	var queries []Query
	switch s.Granularity {
	case Monthly:
		for m := MonthOf(s.Start); m.Start().Before(s.End); m = m.Next() {
			files = append(files, FetchedFile{Period: m.String()})
			queries = append(queries, Query{
				Fields: s.Fields, Start: m.Start(), End: m.Next().Start(),
				IncludeSteps: true,
			})
		}
	case Yearly:
		for y := s.Start.Year(); y <= s.End.Add(-time.Second).Year(); y++ {
			files = append(files, FetchedFile{Period: fmt.Sprintf("%04d", y)})
			queries = append(queries, Query{
				Fields:       s.Fields,
				Start:        time.Date(y, 1, 1, 0, 0, 0, 0, time.UTC),
				End:          time.Date(y+1, 1, 1, 0, 0, 0, 0, time.UTC),
				IncludeSteps: true,
			})
		}
	default:
		return nil, nil, fmt.Errorf("sacct: unknown granularity %d", s.Granularity)
	}
	return files, queries, nil
}

// Periods returns the period labels the spec will fetch, in order, with
// the file name each period lands in under a cache directory. It lets
// workflow graphs declare per-period tasks before any data moves.
func (s FetchSpec) Periods() ([]string, error) {
	files, _, err := s.periods()
	if err != nil {
		return nil, err
	}
	out := make([]string, len(files))
	for i := range files {
		out[i] = files[i].Period
	}
	return out, nil
}

// PeriodFileName returns the cache file name for a period label.
func PeriodFileName(period string) string { return "slurm-" + period + ".txt" }

// Fetch runs the stage and returns one entry per period, in period order.
func (f *Fetcher) Fetch(ctx context.Context, spec FetchSpec) ([]FetchedFile, error) {
	if f.Store == nil {
		return nil, fmt.Errorf("sacct: fetcher has no store")
	}
	if f.CacheDir == "" {
		return nil, fmt.Errorf("sacct: fetcher has no cache directory")
	}
	if err := os.MkdirAll(f.CacheDir, 0o755); err != nil {
		return nil, err
	}
	files, queries, err := spec.periods()
	if err != nil {
		return nil, err
	}
	workers := f.Workers
	if workers <= 0 {
		workers = 4
	}

	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	errs := make([]error, len(files))
	for i := range files {
		files[i].Path = filepath.Join(f.CacheDir, PeriodFileName(files[i].Period))
		if spec.UseCache {
			if _, err := os.Stat(files[i].Path); err == nil {
				files[i].Cached = true
				files[i].Rows = -1
				continue
			}
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			select {
			case sem <- struct{}{}:
				defer func() { <-sem }()
			case <-ctx.Done():
				errs[i] = ctx.Err()
				return
			}
			errs[i] = f.fetchOne(&files[i], queries[i], spec)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return files, nil
}

func (f *Fetcher) fetchOne(file *FetchedFile, q Query, spec FetchSpec) error {
	tmp := file.Path + ".tmp"
	out, err := os.Create(tmp)
	if err != nil {
		return err
	}
	var n int
	if spec.CorruptionRate > 0 {
		var buf bytes.Buffer
		n, err = f.Store.Write(&buf, q)
		if err == nil {
			err = writeCorrupted(out, &buf, spec.CorruptionRate,
				spec.CorruptionSeed^int64(len(file.Period))^int64(file.Period[len(file.Period)-1]))
		}
	} else {
		n, err = f.Store.Write(out, q)
	}
	if cerr := out.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("sacct: fetching %s: %w", file.Period, err)
	}
	if err := os.Rename(tmp, file.Path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("sacct: fetching %s: %w", file.Period, err)
	}
	file.Rows = n
	return nil
}

// writeCorrupted copies lines from buf to w, truncating a random subset —
// the shape of the malformed rows a flaky accounting host produces.
func writeCorrupted(w io.Writer, buf *bytes.Buffer, rate float64, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	sc := bufio.NewScanner(buf)
	sc.Buffer(make([]byte, 1<<20), slurm.MaxLineLen)
	bw := bufio.NewWriter(w)
	first := true
	for sc.Scan() {
		line := sc.Text()
		if !first && rng.Float64() < rate && len(line) > 4 {
			line = line[:len(line)/2] // chop mid-record
		}
		first = false
		if _, err := fmt.Fprintln(bw, line); err != nil {
			return err
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return bw.Flush()
}
