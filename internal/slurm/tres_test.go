package slurm

import (
	"maps"
	"strings"
	"testing"
)

// TestParseTRESRefusesUnrepresentableCounts: a count that is not finite
// or does not fit an int64 is a malformed entry. It used to convert to
// math.MinInt64 with a nil error, which Append rendered and the parser's
// own sign check then refused, so the row no longer survived a dump and
// a load. An entry whose key is blank is refused for the same reason:
// Append would render it as "=5", which the parser refuses.
func TestParseTRESRefusesUnrepresentableCounts(t *testing.T) {
	for in, want := range map[string]string{
		"cpu=NaN":        `slurm: bad TRES count "cpu=NaN"`,
		"cpu=inf":        `slurm: bad TRES count "cpu=inf"`,
		"cpu=-Inf":       `slurm: bad TRES count "cpu=-Inf"`,
		"cpu=1e300":      `slurm: bad TRES count "cpu=1e300"`,
		"node=9.9e18":    `slurm: bad TRES count "node=9.9e18"`,
		"cpu=4,gpu=2e19": `slurm: bad TRES count "gpu=2e19"`,
		"cpu=-1":         `slurm: bad TRES count "cpu=-1"`,
		" =5":            `slurm: malformed TRES entry "=5" in " =5"`,
		"cpu=1, =5":      `slurm: malformed TRES entry " =5" in "cpu=1, =5"`,
	} {
		if got, err := ParseTRES(in); err == nil || err.Error() != want {
			t.Errorf("ParseTRES(%q) = %v, %v; want error %s", in, got, err, want)
		}
	}
	got, err := ParseTRES("node=9.2e18,cpu=-0")
	if err != nil || got["node"] != 9_200_000_000_000_000_000 || got["cpu"] != 0 {
		t.Errorf("largest counts: %v, %v", got, err)
	}
}

// FuzzTRESRoundTrip: whatever ParseTRES accepts renders (Append) to text
// it accepts again, holding the same keys and the same counts. A
// mem-like value comes back as rendered, to two decimals of its unit,
// so within half a percent.
func FuzzTRESRoundTrip(f *testing.F) {
	for _, seed := range []string{
		"cpu=56,mem=512G,node=2,gres/gpu=8", "cpu=3,mem=1.5K", "", " ", "oops",
		"cpu=NaN", "cpu=inf", "cpu=1e300", "node=9.9e18", "node=9.2e18", "mem=NANC",
		"cpu=1,cpu=2", " =5", "a b = 7 ", "mem=1048575", "vmem=1.234M,fs/mem=3",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		m, err := ParseTRES(s)
		if err != nil {
			return
		}
		text := string(m.Append(nil))
		back, err := ParseTRES(text)
		if err != nil {
			t.Fatalf("ParseTRES(%q) = %v renders %q, which does not parse: %v", s, m, text, err)
		}
		if len(back) != len(m) {
			t.Fatalf("%q → %v → %q → %v: keys differ", s, m, text, back)
		}
		for k, v := range m {
			w, ok := back[k]
			switch {
			case !ok:
				t.Fatalf("%q → %q lost key %q", s, text, k)
			case !memLike(k) && w != v:
				t.Fatalf("%q → %q: count %s %d came back %d", s, text, k, v, w)
			case memLike(k) && (w-v > v/200+1 || v-w > v/200+1):
				t.Fatalf("%q → %q: %s %d bytes came back %d", s, text, k, v, w)
			}
		}
	})
}

// FuzzTRESReuse holds the reader's path through the grammar — one map
// cleared and refilled cell after cell, keys from one Interner — to a
// fresh ParseTRES of each cell: the same map, the same error text, and
// nil where ParseTRES gives its empty map for a blank cell. The input is
// a row of cells separated by '|', as in sacct text.
func FuzzTRESReuse(f *testing.F) {
	f.Add("cpu=8,mem=4G|cpu=7||cpu=8,mem=4G,node=2,gres/gpu=8|  |gres/gpu=2")
	f.Add("cpu=1|oops|cpu=2,mem=x|cpu=NaN|mem=1.5K,mem=2K")
	f.Add("a=1,b=2,c=3,d=4,e=5,f=6,g=7,h=8,i=9|a=1")
	f.Fuzz(func(t *testing.T, row string) {
		var reused TRES
		keys := NewInterner()
		for _, cell := range strings.Split(row, "|") {
			got, gerr := parseTRES(&reused, []byte(cell), keys)
			want, werr := ParseTRES(cell)
			switch {
			case (gerr == nil) != (werr == nil) || gerr != nil && gerr.Error() != werr.Error():
				t.Fatalf("cell %q: reused parse says %v, ParseTRES says %v", cell, gerr, werr)
			case gerr != nil:
			case strings.TrimSpace(cell) == "":
				if got != nil || want == nil || len(want) != 0 {
					t.Fatalf("blank cell %q: reused parse %v (want nil), ParseTRES %#v (want empty)", cell, got, want)
				}
			case !maps.Equal(got, want):
				t.Fatalf("cell %q: reused parse %v, ParseTRES %v", cell, got, want)
			}
		}
	})
}
