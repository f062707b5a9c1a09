package serve

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"
	"unsafe"

	"slurmsight/internal/obs"
	"slurmsight/internal/sacct"
	"slurmsight/internal/slurm"
)

// referenceParseQuery is the /query parser parseQuery replaced, kept as
// it was: it reads url.Values (r.URL.Query()) and returns a canonical
// cache-key string, which the handler prefixed with the generation.
func referenceParseQuery(v map[string][]string) (q sacct.Query, limit int, key string, err error) {
	get := func(name string) string {
		if vals := v[name]; len(vals) > 0 {
			return strings.TrimSpace(vals[0])
		}
		return ""
	}
	if f := get("fields"); f != "" {
		for _, name := range strings.Split(f, ",") {
			name = strings.TrimSpace(name)
			if _, ok := slurm.FieldByName(name); !ok {
				return q, 0, "", fmt.Errorf("unknown field %q", name)
			}
			q.Fields = append(q.Fields, name)
		}
	}
	if q.Start, err = parseTimeParam(get("start")); err != nil {
		return q, 0, "", fmt.Errorf("start: %w", err)
	}
	if q.End, err = parseTimeParam(get("end")); err != nil {
		return q, 0, "", fmt.Errorf("end: %w", err)
	}
	if !q.Start.IsZero() && !q.End.IsZero() && !q.Start.Before(q.End) {
		return q, 0, "", fmt.Errorf("empty window: start %s is not before end %s", q.Start, q.End)
	}
	q.User = get("user")
	q.Account = get("account")
	q.Partition = get("partition")
	if st := get("state"); st != "" {
		if _, err := slurm.ParseState(st); err != nil {
			return q, 0, "", err
		}
		q.State = st
	}
	switch steps := get("steps"); steps {
	case "", "0", "false":
	case "1", "true":
		q.IncludeSteps = true
	default:
		return q, 0, "", fmt.Errorf("steps must be a boolean, got %q", steps)
	}
	if l := get("limit"); l != "" {
		limit, err = strconv.Atoi(l)
		if err != nil || limit < 0 {
			return q, 0, "", fmt.Errorf("limit must be a non-negative integer, got %q", l)
		}
	}
	tkey := func(t time.Time) string {
		if t.IsZero() {
			return ""
		}
		return strconv.FormatInt(t.UnixNano(), 10)
	}
	key = strings.Join([]string{
		"f=" + strings.ToLower(strings.Join(q.Fields, ",")),
		"s=" + tkey(q.Start),
		"e=" + tkey(q.End),
		"u=" + q.User,
		"a=" + q.Account,
		"p=" + q.Partition,
		"st=" + strings.ToLower(q.State),
		"steps=" + strconv.FormatBool(q.IncludeSteps),
		"n=" + strconv.Itoa(limit),
	}, "|")
	return q, limit, key, nil
}

// reference is what referenceParseQuery makes of a raw query, as the
// handler called it. Its key spells an accepted state filter as the state
// it names: the new key holds the parsed slurm.State, so "CANCELLED by 7"
// and "cancelled" share an entry, as their answers are the same rows. Its
// query names the state canonically too, as a query built from the key
// does: a state filter's spelling reaches no answer byte.
type reference struct {
	q     sacct.Query
	limit int
	key   string
	err   error
}

func referenceOf(raw string) reference {
	v, _ := url.ParseQuery(raw) // what r.URL.Query() does
	var ref reference
	ref.q, ref.limit, ref.key, ref.err = referenceParseQuery(v)
	if ref.err == nil && ref.q.State != "" {
		st, _ := slurm.ParseState(ref.q.State)
		v["state"] = []string{st.String()}
		_, _, ref.key, _ = referenceParseQuery(v)
		ref.q.State = st.String()
	}
	return ref
}

// collides reports that two requests the reference gave one key string ask
// for different rows: instants 2⁶⁴ ns apart, whose UnixNano wraps to one
// number, or a '|' inside a filter value that reads as the next field's
// separator. The new key keeps them apart.
func collides(a, b sacct.Query) bool {
	return !a.Start.Equal(b.Start) || !a.End.Equal(b.End) ||
		a.User != b.User || a.Account != b.Account || a.Partition != b.Partition
}

// spelled reports a field list with a name not in its catalogue spelling.
// The answer's header echoes it, so the new key keeps that spelling, where
// the reference folded field names to lower case.
func spelled(q sacct.Query) bool {
	for _, name := range q.Fields {
		if f, _ := slurm.FieldByName(name); f.Name != name {
			return true
		}
	}
	return false
}

// queryKeySeeds is the corpus FuzzQueryKey starts from: every /query in
// this package's tests, loopbench's four serve-read key shapes, and the
// spellings a raw-query parser can get wrong.
var queryKeySeeds = []string{
	// The package's tests.
	"fields=JobID,User,State&start=2024-01-10T00:00:00&limit=200",
	"fields=JobID,User,State&limit=200&start=1704844799",
	"fields=JobID&limit=3",
	"fields=JobID,User&limit=3",
	"fields=State,Partition,Account&limit=40",
	"fields=JobID,User,Submit,State,Flags,ReqTRES&start=2024-01&end=2024-02",
	"steps=1&start=2024-02&end=2024-03",
	"steps=1&start=2024-03&end=2024-04",
	"steps=1&fields=JobID,Submit,User,ReqTRES,TRESUsageInAve&start=2024-01-03&end=2024-01-05",
	"steps=1&fields=JobID,Submit,User,State,Backfill&start=2024-01-20&end=2024-01-22",
	"steps=1&user=u3",
	"state=FAILED&fields=JobID,State,ExitCode,Submit,User",
	"steps=1&user=dup1&fields=JobID,Submit,User,Comment",
	"steps=1&limit=40&start=2024-01-06",
	"steps=1&fields=JobID,Submit&start=2024-01-31T12:00:00&end=2024-02-01T12:00:00",
	"fields=JobID",
	"fields=JobID,User&steps=1",
	"fields=JobID,User&start=2024-02-01",
	"fields=NoSuchField",
	"start=not-a-time",
	"state=NOT_A_STATE",
	"limit=-3",
	"steps=maybe",
	"start=2024-02&end=2024-01",
	"fields=JobID,User&start=2024-01-10&end=2024-01-11",
	"fields=JobID,User&user=u01&start=2024-01-01&end=2024-03-01",
	"fields=JobID,User&limit=4",
	"fields=JobID,User,State&limit=5",
	// loopbench's serve-read shapes: a hot month, a two-day window and a
	// user/state filter.
	"fields=JobID,User,State&start=2024-01-01T00:00:00&end=2024-02-01T00:00:00&limit=200",
	"fields=JobID,Submit,NNodes&start=2024-01-03T08:00:00&end=2024-01-05T08:00:00&limit=200",
	"fields=JobID,User,State,Elapsed&start=2024-01-01T00:00:00&end=2024-02-01T00:00:00&user=user0007&state=TIMEOUT&limit=200",
	// Field names in other cases, which share the canonical spelling's key.
	"fields=jobid,USER,State&limit=200",
	// Escapes, '+', ';', empty values, repeats and an epoch start.
	"fields=JobID%2CUser&user=a%2Bb",
	"user=a+b&account=%41cct",
	"fie%6Cds=JobID&fields=User",
	"fields=JobID;User&fields=State",
	"user=%zz&user=u1",
	"fields=&fields=JobID",
	"fields=JobID&fields=User",
	"start=0000000000",
	"start=1704844800&end=2024-01-11",
	"state=cancelled+by+7",
	"limit=+5&steps=true",
	"",
	"&&=&",
}

// FuzzQueryKey holds parseQuery to referenceParseQuery over raw query
// strings: the two accept and reject alike, with the same text, and build
// the same sacct.Query and limit. And two raw queries get equal keys
// exactly when the reference gives them equal key strings, but for the
// collisions of that string the new key does not share (collides) and
// field lists the new key keeps apart by their spelling (spelled).
func FuzzQueryKey(f *testing.F) {
	for i, raw := range queryKeySeeds {
		f.Add(raw, queryKeySeeds[(i+1)%len(queryKeySeeds)])
	}
	for _, pair := range [][2]string{
		{"fields=JobID,User", "fields=jobid,+USER+"},
		{"start=2024-01-10T00:00:00&end=2024-01-11", "end=2024-01-11T00:00:00Z&start=1704844800"},
		{"state=CANCELLED", "state=cancelled+by+7"},
		{"fields=JobID&fields=User", "fields=JobID"},
		{"user=a%2Bb", "user=a+b"},
		{"limit=05", "limit=5"},
		{"steps=1", "steps=true"},
	} {
		f.Add(pair[0], pair[1])
	}
	f.Fuzz(func(t *testing.T, a, b string) {
		ka, refA, okA := checkQueryParse(t, a)
		kb, refB, okB := checkQueryParse(t, b)
		if !okA || !okB {
			return
		}
		same, refSame := ka == kb, refA.key == refB.key
		if same && !refSame {
			t.Fatalf("%q and %q share a key; the reference keys them apart:\n%s\n%s", a, b, refA.key, refB.key)
		}
		if refSame && !same && !collides(refA.q, refB.q) && !spelled(refA.q) && !spelled(refB.q) {
			t.Fatalf("%q and %q get different keys; the reference shares %s", a, b, refA.key)
		}
	})
}

// checkQueryParse fails t unless parseQuery and the reference agree on
// raw, and returns the key and the reference when both accept it.
func checkQueryParse(t *testing.T, raw string) (cacheKey, reference, bool) {
	t.Helper()
	ref := referenceOf(raw)
	key, err := parseQuery(raw)
	if (err == nil) != (ref.err == nil) || err != nil && err.Error() != ref.err.Error() {
		t.Fatalf("%q: parseQuery says %v, the reference %v", raw, err, ref.err)
	}
	if err != nil {
		return cacheKey{}, ref, false
	}
	if q := key.query(); !reflect.DeepEqual(q, ref.q) {
		t.Fatalf("%q: parseQuery builds %+v, the reference %+v", raw, q, ref.q)
	}
	if key.limit != ref.limit {
		t.Fatalf("%q: parseQuery limits to %d, the reference %d", raw, key.limit, ref.limit)
	}
	return key, ref, true
}

// TestQueryBodyIsAFunctionOfItsKey checks that a /query body does not
// depend on which request missed first: fields=jobid and fields=JobID,
// in either order, each get a header in their own spelling, the same bytes
// in both orders, and never the other's cached body.
func TestQueryBodyIsAFunctionOfItsKey(t *testing.T) {
	bodies := map[string]string{}
	for _, order := range [][2]string{{"jobid", "JobID"}, {"JobID", "jobid"}} {
		s, err := New(Config{Store: columnarStore(t, 50), Metrics: obs.NewRegistry(), FlightRing: -1})
		if err != nil {
			t.Fatal(err)
		}
		h := s.Handler()
		for _, spelling := range order {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("GET", "/query?fields="+spelling+"&limit=1", nil))
			if rec.Code != http.StatusOK || rec.Header().Get("X-Cache") != "miss" {
				t.Fatalf("fields=%s: status %d, X-Cache %q, want 200 and miss", spelling, rec.Code, rec.Header().Get("X-Cache"))
			}
			body := rec.Body.String()
			if header, _, _ := strings.Cut(body, "\n"); header != spelling {
				t.Errorf("fields=%s after fields=%s: header line %q", spelling, order[0], header)
			}
			if prev, ok := bodies[spelling]; ok && prev != body {
				t.Errorf("fields=%s: body depends on the request order:\n%q\n%q", spelling, prev, body)
			}
			bodies[spelling] = body
		}
	}
}

// TestCachedKeyDropsTheRawQuery checks that a cached /query entry's key
// holds its filter values and field spelling in strings of its own, not
// in the request's raw query: a request padded with parameters the parser
// ignores must not stay alive as long as its entry.
func TestCachedKeyDropsTheRawQuery(t *testing.T) {
	s, err := New(Config{Store: columnarStore(t, 50), Metrics: obs.NewRegistry(), FlightRing: -1})
	if err != nil {
		t.Fatal(err)
	}
	url := "/query?fields=JobID,user&user=u01&account=acct&partition=batch&pad=" + strings.Repeat("x", 1<<16)
	r := httptest.NewRequest("GET", url, nil)
	w := &sink{h: http.Header{}}
	serveOnce(s.Handler(), w, r)
	if w.status != http.StatusOK || w.h.Get("X-Cache") != "miss" {
		t.Fatalf("status %d, X-Cache %q, want 200 and miss", w.status, w.h.Get("X-Cache"))
	}
	raw := r.URL.RawQuery
	lo := uintptr(unsafe.Pointer(unsafe.StringData(raw)))
	hi := lo + uintptr(len(raw))
	if s.cache.len() != 1 {
		t.Fatalf("%d cached entries, want 1", s.cache.len())
	}
	k := s.cache.lru.Front().Value.(*entry).key
	for name, v := range map[string]string{"user": k.user, "account": k.account, "partition": k.partition, "field spelling": k.spelling} {
		if v == "" {
			t.Fatalf("%s is empty in the cached key", name)
		}
		if p := uintptr(unsafe.Pointer(unsafe.StringData(v))); lo <= p && p < hi {
			t.Errorf("cached key's %s %q points into the request's raw query", name, v)
		}
	}
	if e, ok := s.cache.byKey[k]; !ok || e.Value.(*entry).key != k {
		t.Error("the entry's key is not the one the cache indexes it by")
	}
}
