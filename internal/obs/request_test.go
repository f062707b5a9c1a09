package obs

import (
	"math"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestRequestTraceRecordsInPlace pins the request trace's life: spans
// opened under the root land in the list EndRequest hands over, which is
// that list and not a copy; a span left open reads as ended at the close,
// Ended false; and once closed, no call on any of the request's spans
// changes the recorded trace.
func TestRequestTraceRecordsInPlace(t *testing.T) {
	start := time.Now()
	root := StartRequest("GET /query", start, 4)
	scan := root.Child("store-scan")
	scan.SetAttrInt("rows", 200)
	scan.SetAttrInt("shards", 0)
	scan.End()
	open := root.Child("figure-render")
	root.SetAttr("cache", "miss")
	root.SetAttrInt("status", -1)

	spans := EndRequest(root)
	if len(spans) != 3 || spans[0].Name != "GET /query" || spans[0].ID != 1 || !spans[0].Start.Equal(start) || !spans[0].Ended {
		t.Fatalf("spans %+v", spans)
	}
	if spans[1].ParentID != 1 || spans[1].Attr("rows") != "200" || spans[1].Attr("shards") != "0" {
		t.Fatalf("store-scan %+v", spans[1])
	}
	if spans[2].Ended || spans[2].End.IsZero() {
		t.Fatalf("open span %+v, want End set at the close and Ended false", spans[2])
	}
	if spans[0].Attr("cache") != "miss" || spans[0].Attr("status") != "-1" {
		t.Fatalf("root attrs %+v", spans[0].Attrs)
	}

	end := spans[2].End
	open.SetAttr("late", "x")
	open.Event("late")
	open.End()
	root.SetAttr("late", "x")
	if root.Child("late") != nil {
		t.Fatal("a closed trace opened a span")
	}
	if again := root.tr.spans; &again[0] != &spans[0] {
		t.Fatal("EndRequest handed over a copy of the span list")
	}
	if len(spans[2].Attrs) != 0 || len(spans[2].Events) != 0 || spans[2].Ended || !spans[2].End.Equal(end) || spans[0].Attr("late") != "" {
		t.Fatalf("a call after the close changed the trace: %+v", spans)
	}
}

// TestAttrText pins how an integer attribute reads back: as
// strconv.FormatInt would have stored it, zero included, beside string
// attributes whose empty value stays empty.
func TestAttrText(t *testing.T) {
	tr := NewTracer()
	sp := tr.Start("s")
	sp.SetAttr("empty", "")
	for _, v := range []int64{0, 7, -7, 1 << 40, math.MinInt64} {
		sp.SetAttrInt(strconv.FormatInt(v, 10), v)
	}
	d := tr.Snapshot()[0]
	if got := d.Attr("empty"); got != "" {
		t.Errorf("empty string attr reads %q", got)
	}
	for _, a := range d.Attrs[1:] {
		if a.Text() != a.Key {
			t.Errorf("integer attr %s reads %q", a.Key, a.Text())
		}
	}
}

// TestTraceIDsAreRandomHex checks a run of IDs: 16 lower-case hex
// characters each, none repeated, and not a counter.
func TestTraceIDsAreRandomHex(t *testing.T) {
	seen := map[string]bool{}
	var prev uint64
	var steps int
	for i := 0; i < 1000; i++ {
		id := NewTraceID()
		v, err := strconv.ParseUint(id, 16, 64)
		if len(id) != 16 || err != nil || strings.ToLower(id) != id {
			t.Fatalf("trace ID %q, want 16 lower-case hex characters", id)
		}
		if seen[id] {
			t.Fatalf("trace ID %q repeated", id)
		}
		seen[id] = true
		if v == prev+1 {
			steps++
		}
		prev = v
	}
	if steps > 1 {
		t.Fatalf("%d of 1000 trace IDs follow their predecessor by one", steps)
	}
}
