package slurm

import (
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

// ParseTRES parses a TRES string. An empty string yields an empty map.
func ParseTRES(s string) (TRES, error) {
	out := TRES{}
	t := strings.TrimSpace(s)
	if t == "" {
		return out, nil
	}
	for _, kv := range strings.Split(t, ",") {
		i := strings.IndexByte(kv, '=')
		if i <= 0 {
			return nil, fmt.Errorf("slurm: malformed TRES entry %q in %q", kv, s)
		}
		key, val := strings.TrimSpace(kv[:i]), strings.TrimSpace(kv[i+1:])
		var n int64
		if memLike(key) {
			b, _, err := ParseMemoryBytes([]byte(val))
			if err != nil {
				return nil, fmt.Errorf("slurm: bad TRES memory %q: %v", kv, err)
			}
			n = b
		} else {
			v, err := strconv.ParseFloat(val, 64)
			if err != nil || v < 0 {
				return nil, fmt.Errorf("slurm: bad TRES count %q", kv)
			}
			n = int64(v)
		}
		out[key] = n
	}
	return out, nil
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

// Get returns the value for key, or 0 when absent.
func (t TRES) Get(key string) int64 { return t[key] }

// Clone returns a deep copy; a nil map's is nil.
func (t TRES) Clone() TRES { return maps.Clone(t) }
