package main

import (
	"cmp"
	"encoding/binary"
	"hash"
	"hash/fnv"
	"io"
	"os"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"slurmsight/internal/obs"
)

// quantile reads the q-quantile of xs the way Python's
// statistics.quantiles does (the "exclusive" method: the cut point sits
// at q·(n+1) in the sorted sample, interpolated between its neighbours),
// because the acceptance driver computes its quartile spread with that.
// xs need not be sorted.
func quantile(xs []float64, q float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0]
		}
		return 0
	}
	pos := q * float64(n+1)
	j := min(max(int(pos), 1), n-1)
	delta := pos - float64(j)
	return s[j-1]*(1-delta) + s[j]*delta
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailPercentile returns the highest of p99 and p90 that still has at
// least ten samples beyond it, with its label, and below 100 samples
// simply the maximum.
func tailPercentile(xs []float64) (string, float64) {
	switch n := len(xs); {
	case n >= 1000:
		return "p99", quantile(xs, 0.99)
	case n >= 100:
		return "p90", quantile(xs, 0.90)
	case n > 0:
		return "max", slices.Max(xs)
	default:
		return "max", 0
	}
}

// selfTimes folds a span snapshot into totals per (phase, span name):
// count, wall time, and self time — a span's duration minus the part of
// its interval that its direct children cover (overlapping children are
// unioned, so concurrent children never push self time below zero). A
// span's phase is its ancestor directly under the root span (setup,
// loop, probe, …), so the loop's shares can be read apart from the
// probe's; a root span's phase is "run".
type spanKey struct{ Phase, Name string }

type spanTotals struct {
	Count       int
	Total, Self time.Duration
}

func selfTimes(spans []obs.SpanData) map[spanKey]*spanTotals {
	byID := map[int64]*obs.SpanData{}
	children := map[int64][]*obs.SpanData{}
	for i := range spans {
		sp := &spans[i]
		byID[sp.ID] = sp
		if sp.ParentID != 0 {
			children[sp.ParentID] = append(children[sp.ParentID], sp)
		}
	}
	phase := func(sp *obs.SpanData) string {
		if sp.ParentID == 0 {
			return "run"
		}
		for {
			parent, ok := byID[sp.ParentID]
			if !ok || parent.ParentID == 0 {
				break
			}
			sp = parent
		}
		return sp.Name
	}
	out := map[spanKey]*spanTotals{}
	for i := range spans {
		sp := &spans[i]
		kids := children[sp.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start.Before(kids[j].Start) })
		var covered time.Duration
		cursor := sp.Start
		for _, k := range kids {
			from, to := k.Start, k.End
			if from.Before(cursor) {
				from = cursor
			}
			if to.After(sp.End) {
				to = sp.End
			}
			if to.After(from) {
				covered += to.Sub(from)
				cursor = to
			}
		}
		key := spanKey{phase(sp), sp.Name}
		t := out[key]
		if t == nil {
			t = &spanTotals{}
			out[key] = t
		}
		t.Count++
		t.Total += sp.Duration()
		t.Self += sp.Duration() - covered
	}
	return out
}

// digester is FNV-64a over a sequence of parts, each length-prefixed
// so two different splits of the same bytes never collide.
type digester struct{ h hash.Hash64 }

func newDigester() *digester { return &digester{fnv.New64a()} }

func (d *digester) prefix(n int64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(n))
	d.h.Write(b[:])
}

func (d *digester) part(p []byte) {
	d.prefix(int64(len(p)))
	d.h.Write(p)
}

// file streams one file in as a part, without holding it in memory.
func (d *digester) file(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return err
	}
	d.prefix(st.Size())
	_, err = io.Copy(d.h, f)
	return err
}

func (d *digester) sum() uint64 { return d.h.Sum64() }

func digest(parts ...[]byte) uint64 {
	d := newDigester()
	for _, p := range parts {
		d.part(p)
	}
	return d.sum()
}

func hex64(v uint64) string { return strconv.FormatUint(v, 16) }

// usage is one reading of the process-wide cost meters the loop is
// bracketed with.
type usage struct {
	wall   time.Time
	cpu    time.Duration // user+sys, getrusage
	allocB uint64        // runtime.MemStats.TotalAlloc
	allocN uint64        // runtime.MemStats.Mallocs
}

func readUsage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{wall: time.Now(), cpu: processCPU(), allocB: ms.TotalAlloc, allocN: ms.Mallocs}
}

// liveHeapMB forces two collections (the second frees what the first
// one's finalizers released) and reads what is still reachable, so the
// number does not depend on where the GC pacer happened to be.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// peakRSSMB reads VmHWM from /proc/self/status; 0 where there is none.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
