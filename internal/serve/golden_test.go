package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"net/http"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"slurmsight/internal/sacct"
	"slurmsight/internal/sched/schedtest"
	"slurmsight/internal/slurm"
)

// goldenFrontierStore is the golden Frontier run (schedtest) dumped to the
// columnar format and opened, so every one of its rows is sealed on disk.
func goldenFrontierStore(t *testing.T) *sacct.Store {
	t.Helper()
	res := schedtest.FrontierResult(t)
	mem := sacct.NewStore()
	if err := mem.Ingest(res); err != nil {
		t.Fatal(err)
	}
	mem.Finalize()
	if mem.Len() != schedtest.FrontierRows {
		t.Fatalf("golden Frontier store has %d rows, want %d", mem.Len(), schedtest.FrontierRows)
	}
	path := filepath.Join(t.TempDir(), "golden.colstore")
	if err := mem.DumpBinaryFile(path); err != nil {
		t.Fatal(err)
	}
	store, err := sacct.OpenBinary(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	return store
}

// goldenFields is what a text batch of the live stream carries: every
// column a collector reads, plus the TRES maps and flags.
var goldenFields = []string{"JobID", "User", "Account", "Partition", "Submit", "Start", "End", "Elapsed", "Timelimit",
	"State", "ExitCode", "NNodes", "NCPUS", "Flags", "ReqTRES", "TRESUsageInAve", "Comment"}

// goldenRow is liveJob with the fields a live row also carries: main or
// backfill flags, and TRES maps that are absent, empty or filled.
func goldenRow(rng *rand.Rand, id int64, submit time.Time) slurm.Record {
	r := liveJob(rng, id, submit)
	if r.Flags == nil && rng.Intn(2) == 0 {
		r.Flags = []string{slurm.FlagMain}
	}
	if r.State == slurm.StateFailed {
		r.ExitCode = 1 + rng.Intn(3)
	}
	switch rng.Intn(4) {
	case 1:
		r.TRESReq = slurm.TRES{"cpu": r.NCPUs, "mem": r.NNodes << 30, "node": r.NNodes}
	case 2:
		r.TRESReq = slurm.TRES{"cpu": r.NCPUs, "node": r.NNodes, "gres/gpu": 8 * r.NNodes}
		r.TRESUsageInAve = slurm.TRES{"cpu": int64(rng.Intn(3600)), "mem": int64(rng.Intn(1 << 20))}
	case 3:
		r.TRESReq, r.TRESUsageInAve = slurm.TRES{}, slurm.TRES{}
	}
	return r
}

// goldenSteps returns a job's batch step and numbered steps.
func goldenSteps(rng *rand.Rand, job slurm.Record) []slurm.Record {
	var out []slurm.Record
	for n := int64(-1); n < int64(rng.Intn(4)); n++ {
		s := job
		if s.ID = job.ID.WithStep(n); n < 0 {
			s.ID = job.ID.WithBatch()
		}
		s.Flags, s.TRESReq = nil, nil
		s.TRESUsageInAve = slurm.TRES{"cpu": int64(rng.Intn(600))}
		out = append(out, s)
	}
	return out
}

type goldenBatch struct {
	kind   string
	binary bool
	recs   []slurm.Record
}

// goldenStream draws the append stream TestLiveAppendGoldenDigest posts:
// tail batches, late ones into January (whose rows are on disk) and into
// months the tail has since left, batches across a month boundary, keys
// the store already holds, jobs with their steps, columnar batches that
// keep empty TRES maps apart from absent ones, and one batch of 5,000
// rows.
func goldenStream(seed int64, base []slurm.Record) []goldenBatch {
	rng := rand.New(rand.NewSource(seed))
	jan := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	cursor := time.Date(2024, 1, 8, 0, 0, 0, 0, time.UTC)
	id := int64(5_000_000)
	var tailRec slurm.Record
	var sent []slurm.Record
	next := func(step time.Duration) slurm.Record {
		cursor = cursor.Add(time.Duration(1+rng.Int63n(int64(step/time.Second))) * time.Second)
		id++
		tailRec = goldenRow(rng, id, cursor)
		return tailRec
	}
	inMonth := func(m sacct.Month) slurm.Record {
		span := m.Next().Start().Sub(m.Start())
		id++
		return goldenRow(rng, id, m.Start().Add(time.Duration(rng.Int63n(int64(span)))))
	}
	kinds := []string{"tail", "late", "tail", "binary", "dup", "tail", "late", "span", "steps", "late-old"}
	out := make([]goldenBatch, 60)
	for i := range out {
		b := goldenBatch{kind: kinds[i%len(kinds)]}
		if i == 23 {
			b.kind = "big"
		}
		switch b.kind {
		case "tail":
			for n := 1 + rng.Intn(120); n > 0; n-- {
				b.recs = append(b.recs, next(time.Hour))
			}
		case "big":
			for n := 5000; n > 0; n-- {
				b.recs = append(b.recs, next(2*time.Minute))
			}
		case "late":
			for n := 1 + rng.Intn(60); n > 0; n-- {
				b.recs = append(b.recs, inMonth(sacct.MonthOf(jan)))
			}
		case "late-old": // a month the tail has left, January when there is none
			left := []sacct.Month{sacct.MonthOf(jan)}
			for m := left[0].Next(); m.Before(sacct.MonthOf(cursor)); m = m.Next() {
				left = append(left, m)
			}
			m := left[len(left)-1]
			if len(left) > 1 {
				m = left[1+rng.Intn(len(left)-1)]
			}
			for n := 1 + rng.Intn(40); n > 0; n-- {
				b.recs = append(b.recs, inMonth(m))
			}
		case "binary":
			b.binary = true
			for n := 1 + rng.Intn(50); n > 0; n-- {
				b.recs = append(b.recs, next(time.Hour))
			}
			if rng.Intn(2) == 0 {
				b.recs = append(b.recs, inMonth(sacct.MonthOf(jan)))
			}
		case "dup": // keys the store already holds: the tail's, a sealed row's, an earlier batch's
			b.recs = append(b.recs, tailRec, base[rng.Intn(len(base))], sent[rng.Intn(len(sent))], next(time.Hour))
			for k := 0; k < 3; k++ {
				b.recs[k].User = fmt.Sprintf("dup%d", k)
			}
		case "span": // from the last days of the tail month into the next
			cursor = sacct.MonthOf(cursor).Next().Start().Add(-36 * time.Hour)
			for n := 12; n > 0; n-- {
				b.recs = append(b.recs, next(12*time.Hour))
			}
		case "steps":
			for n := 1 + rng.Intn(15); n > 0; n-- {
				job := next(time.Hour)
				b.recs = append(append(b.recs, job), goldenSteps(rng, job)...)
			}
		}
		if rng.Intn(3) == 0 {
			rng.Shuffle(len(b.recs), func(x, y int) { b.recs[x], b.recs[y] = b.recs[y], b.recs[x] })
		}
		sent = append(sent, b.recs...)
		out[i] = b
	}
	return out
}

// body renders a batch as the /ingest request: pipe-text, or a columnar
// blob written by a store holding just the batch.
func (b *goldenBatch) body(t *testing.T) []byte {
	t.Helper()
	if !b.binary {
		return encodeBatch(t, goldenFields, b.recs)
	}
	st := sacct.NewStore()
	if _, _, err := st.AppendBatch(slices.Clone(b.recs)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := st.DumpBinary(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// goldenQueries is what TestLiveAppendGoldenDigest asks after every batch:
// month windows, two-day windows over the late month, user and state
// filters, a window across a month boundary, and a row limit.
var goldenQueries = []string{
	"/query?fields=JobID,User,Submit,State,Flags,ReqTRES&start=2024-01&end=2024-02",
	"/query?steps=1&start=2024-02&end=2024-03",
	"/query?steps=1&start=2024-03&end=2024-04",
	"/query?steps=1&fields=JobID,Submit,User,ReqTRES,TRESUsageInAve&start=2024-01-03&end=2024-01-05",
	"/query?steps=1&fields=JobID,Submit,User,State,Backfill&start=2024-01-20&end=2024-01-22",
	"/query?steps=1&user=u3",
	"/query?state=FAILED&fields=JobID,State,ExitCode,Submit,User",
	"/query?steps=1&user=dup1&fields=JobID,Submit,User,Comment",
	"/query?steps=1&limit=40&start=2024-01-06",
	"/query?steps=1&fields=JobID,Submit&start=2024-01-31T12:00:00&end=2024-02-01T12:00:00",
}

// TestLiveAppendGoldenDigest pins everything the live plane answers over
// an append stream into a store opened from the golden Frontier dump: the
// ack of each of 60 /ingest batches, every figure and a fixed set of
// /query bodies after each one, and the store's text and columnar dumps
// at the end. The constant was recorded before the live tail could be
// held as anything but records; how the store keeps appended rows must
// not change a byte of what it serves.
func TestLiveAppendGoldenDigest(t *testing.T) {
	store := goldenFrontierStore(t)
	base, err := store.Select(sacct.Query{IncludeSteps: true, Start: time.Date(2024, 1, 3, 0, 0, 0, 0, time.UTC), End: time.Date(2024, 1, 3, 1, 0, 0, 0, time.UTC)})
	if err != nil || len(base) == 0 {
		t.Fatalf("base rows: %d, %v", len(base), err)
	}
	srv, err := New(Config{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	sum := sha256.New()
	note := func(label string, code int, gen string, body []byte) {
		fmt.Fprintf(sum, "%s|%d|%s|%d\n", label, code, gen, len(body))
		sum.Write(body)
	}
	rows := store.Len()
	for i, b := range goldenStream(28, base) {
		w := serveDirect(h, "POST", "/ingest", b.body(t))
		if w.Code != http.StatusOK {
			t.Fatalf("batch %d (%s): status %d: %s", i, b.kind, w.Code, w.Body)
		}
		rows += len(b.recs)
		note("ingest "+b.kind, w.Code, w.Header().Get("X-Store-Generation"), w.Body.Bytes())
		for _, key := range figureKeys() {
			w := serveDirect(h, "GET", "/figures/"+key+".json", nil)
			note(key, w.Code, w.Header().Get("X-Store-Generation"), w.Body.Bytes())
		}
		for _, q := range goldenQueries {
			w := serveDirect(h, "GET", q, nil)
			note(q, w.Code, w.Header().Get("X-Store-Generation"), w.Body.Bytes())
		}
	}
	if store.Len() != rows {
		t.Fatalf("store holds %d rows, want %d", store.Len(), rows)
	}
	var dump bytes.Buffer
	if err := store.Dump(&dump); err != nil {
		t.Fatal(err)
	}
	note("dump", 0, "", dump.Bytes())
	dump.Reset()
	if err := store.DumpBinary(&dump); err != nil {
		t.Fatal(err)
	}
	note("dump-binary", 0, "", dump.Bytes())

	const want = "ceec7a689faa7417426b75cb226c0cb4e21407e3fbef3d4283f879c758a90334"
	if got := hex.EncodeToString(sum.Sum(nil)); got != want {
		t.Errorf("the live plane over the golden append stream digests to %s, want %s", got, want)
	}
}
