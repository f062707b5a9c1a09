package slurm

import (
	"bytes"
	"fmt"
	"maps"
	"slices"
	"strconv"
	"strings"
)

// TRES is a trackable-resources map as encoded in fields like TRESReq and
// TRESUsageInAve: "cpu=56,mem=512G,node=2,gres/gpu=8". Values are stored in
// base units (bytes for mem-like resources, plain counts otherwise).
type TRES map[string]int64

// memLike reports whether a TRES key carries a byte quantity.
func memLike(key string) bool {
	return key == "mem" || strings.HasSuffix(key, "/mem") || key == "vmem"
}

// parseTRES is the one body of the TRES grammar. A blank cell returns
// nil and leaves *dst alone; any other cell is parsed into *dst, cleared
// first and made when nil, which is returned. A key comes from keys when
// it is non-nil, so a key seen before costs no allocation, and is a fresh
// string otherwise. An entry without a key, a bad memory size and a
// count that is negative, not finite or past int64 are errors that quote
// the entry.
func parseTRES(dst *TRES, cell []byte, keys *Interner) (TRES, error) {
	t := bytes.TrimSpace(cell)
	if len(t) == 0 {
		return nil, nil
	}
	if *dst == nil {
		*dst = TRES{}
	}
	m := *dst
	clear(m)
	for {
		kv := t
		next := bytes.IndexByte(t, ',')
		if next >= 0 {
			kv, t = t[:next], t[next+1:]
		}
		i := bytes.IndexByte(kv, '=')
		k := bytes.TrimSpace(kv[:max(i, 0)])
		if len(k) == 0 { // no '=', or no key before it
			// string(...), not the slices: boxing them would make cell,
			// and every caller's row buffer, escape to the heap.
			return nil, fmt.Errorf("slurm: malformed TRES entry %q in %q", string(kv), string(cell))
		}
		var key string
		if keys != nil {
			key = keys.Intern(k)
		} else {
			key = string(k)
		}
		val := bytes.TrimSpace(kv[i+1:])
		if memLike(key) {
			n, _, err := ParseMemoryBytes(val)
			if err != nil {
				return nil, fmt.Errorf("slurm: bad TRES memory %q: %v", string(kv), err)
			}
			m[key] = n
		} else {
			// !(v >= 0 && v < 2^63) also refuses NaN, which every
			// comparison fails, and ±Inf.
			v, err := strconv.ParseFloat(bstr(val), 64)
			if err != nil || !(v >= 0 && v < 1<<63) {
				return nil, fmt.Errorf("slurm: bad TRES count %q", string(kv))
			}
			m[key] = int64(v)
		}
		if next < 0 {
			return m, nil
		}
	}
}

// String renders the map with keys sorted, the canonical Slurm encoding.
func (t TRES) String() string { return string(t.Append(nil)) }

// Append appends the map in String's form. The keys are ordered in a
// stack array, so the usual map of up to eight entries allocates
// nothing.
func (t TRES) Append(dst []byte) []byte {
	var stack [8]string
	keys := stack[:0]
	for k := range t {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for i, k := range keys {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(append(dst, k...), '=')
		if memLike(k) {
			dst = appendSize(dst, t[k])
		} else {
			dst = strconv.AppendInt(dst, t[k], 10)
		}
	}
	return dst
}

// Clone returns a deep copy; a nil map's is nil.
func (t TRES) Clone() TRES { return maps.Clone(t) }
