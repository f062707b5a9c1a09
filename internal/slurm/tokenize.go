package slurm

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"time"
	"unsafe"
)

// This file is the zero-alloc byte plane of the decoder: a field
// tokenizer plus the sacct-text parsers, which work on []byte without
// round-tripping through strings or the generic time.Parse machinery.
// Each grammar has one body, here. ParseTimeBytes and ParseStateBytes
// decode the canonical spellings themselves and hand everything else
// to ParseTime and ParseState, which the mirror test holds them equal
// to. ByteRecordReader composes them into a 0-alloc-per-row decode hot
// path.

// SplitFieldsBytes splits line on the sacct column separator into buf,
// growing the backing array only when a row has more columns than any
// prior one. The returned subslices alias line.
func SplitFieldsBytes(buf [][]byte, line []byte) [][]byte {
	for {
		i := bytes.IndexByte(line, Separator[0])
		if i < 0 {
			return append(buf, line)
		}
		buf = append(buf, line[:i])
		line = line[i+1:]
	}
}

// bstr gives a read-only string view of b without copying. The result
// aliases b and must not be retained or reach any code that stores it;
// it exists so strconv's exact float parsing can run on scratch bytes.
func bstr(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}

// parseInt64Bytes is strconv.ParseInt(s, 10, 64) on bytes: optional sign,
// decimal digits only, overflow rejected. ok is false on any deviation.
func parseInt64Bytes(b []byte) (int64, bool) {
	if len(b) == 0 {
		return 0, false
	}
	neg := false
	if b[0] == '+' || b[0] == '-' {
		neg = b[0] == '-'
		b = b[1:]
		if len(b) == 0 {
			return 0, false
		}
	}
	const cutoff = uint64(1) << 63
	var n uint64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		if n > (cutoff-1)/10 {
			return 0, false // would overflow on *10
		}
		n = n*10 + uint64(c-'0')
		if n >= cutoff && !(neg && n == cutoff) {
			return 0, false
		}
	}
	if neg {
		return -int64(n), true
	}
	return int64(n), true
}

// twoDigits decodes b[i:i+2] as a two-digit decimal number, returning
// -1 unless both bytes are digits.
func twoDigits(b []byte, i int) int {
	c0, c1 := b[i], b[i+1]
	if c0 < '0' || c0 > '9' || c1 < '0' || c1 > '9' {
		return -1
	}
	return int(c0-'0')*10 + int(c1-'0')
}

// ParseTimeBytes is ParseTime for byte slices: the canonical 19-byte
// sacct layout is decoded without time.Parse; anything else falls back
// to the string parser so semantics stay identical.
func ParseTimeBytes(b []byte) (time.Time, error) {
	t := bytes.TrimSpace(b)
	if len(t) == 0 || bytes.EqualFold(t, unknownBytes) || bytes.EqualFold(t, noneBytes) {
		return time.Time{}, nil
	}
	// Fast path: "2006-01-02T15:04:05", strictly positional.
	if len(t) == 19 && t[4] == '-' && t[7] == '-' && t[10] == 'T' && t[13] == ':' && t[16] == ':' {
		y1, y2 := twoDigits(t, 0), twoDigits(t, 2)
		mo := twoDigits(t, 5)
		d := twoDigits(t, 8)
		h := twoDigits(t, 11)
		mi := twoDigits(t, 14)
		s := twoDigits(t, 17)
		if y1 >= 0 && y2 >= 0 && mo >= 1 && mo <= 12 && d >= 1 && d <= 31 &&
			h >= 0 && h <= 23 && mi >= 0 && mi <= 59 && s >= 0 && s <= 59 {
			year := y1*100 + y2
			ts := time.Date(year, time.Month(mo), d, h, mi, s, 0, time.UTC)
			// time.Date normalises out-of-range days (Feb 30 → Mar 2);
			// time.Parse rejects them, so verify nothing moved.
			if ts.Day() == d && ts.Month() == time.Month(mo) {
				return ts, nil
			}
		}
	}
	return ParseTime(string(b))
}

var (
	unknownBytes   = []byte("Unknown")
	noneBytes      = []byte("None")
	unlimitedBytes = []byte("UNLIMITED")
	invalidBytes   = []byte("INVALID")
)

// ParseDurationBytes parses a Slurm elapsed/timelimit cell. Accepted
// layouts, as produced by sacct and accepted by sbatch:
//
//	MM:SS
//	HH:MM:SS
//	D-HH
//	D-HH:MM
//	D-HH:MM:SS
//	MM (bare minutes, sbatch --time shorthand)
//	UNLIMITED / INVALID / empty → error
func ParseDurationBytes(b []byte) (time.Duration, error) {
	t := bytes.TrimSpace(b)
	if len(t) == 0 || bytes.EqualFold(t, unlimitedBytes) || bytes.EqualFold(t, invalidBytes) {
		return 0, fmt.Errorf("slurm: unparseable duration %q", b)
	}
	var days int64
	hadDash := false
	if i := bytes.IndexByte(t, '-'); i >= 0 {
		d, ok := parseInt64Bytes(t[:i])
		if !ok || d < 0 {
			return 0, fmt.Errorf("slurm: bad day count in duration %q", b)
		}
		days, t, hadDash = d, t[i+1:], true
	}
	// Split the remainder on ':' into at most three components.
	var parts [4][]byte
	n := 0
	for rest := t; ; {
		i := bytes.IndexByte(rest, ':')
		if n == len(parts) {
			return 0, fmt.Errorf("slurm: malformed duration %q", b)
		}
		if i < 0 {
			parts[n] = rest
			n++
			break
		}
		parts[n] = rest[:i]
		n++
		rest = rest[i+1:]
	}
	for _, p := range parts[:n] {
		if len(p) == 0 {
			return 0, fmt.Errorf("slurm: empty component in duration %q", b)
		}
	}
	var h, m, sec int64
	ok := true
	switch n {
	case 1:
		// D-HH when a day prefix was present, bare minutes otherwise.
		if days > 0 || hadDash {
			h, ok = parseInt64Bytes(parts[0])
		} else {
			m, ok = parseInt64Bytes(parts[0])
		}
	case 2:
		if hadDash {
			h, ok = parseInt64Bytes(parts[0])
			if ok {
				m, ok = parseInt64Bytes(parts[1])
			}
		} else {
			m, ok = parseInt64Bytes(parts[0])
			if ok {
				sec, ok = parseInt64Bytes(parts[1])
			}
		}
	case 3:
		h, ok = parseInt64Bytes(parts[0])
		if ok {
			m, ok = parseInt64Bytes(parts[1])
		}
		if ok {
			sec, ok = parseInt64Bytes(parts[2])
		}
	default:
		return 0, fmt.Errorf("slurm: malformed duration %q", b)
	}
	if !ok || h < 0 || m < 0 || sec < 0 {
		return 0, fmt.Errorf("slurm: malformed duration %q", b)
	}
	// Guard against int64-nanosecond overflow (time.Duration tops out
	// near 292 years); component caps keep the seconds arithmetic itself
	// overflow-free.
	const maxComponent = int64(1) << 33
	if days > maxComponent || h > maxComponent || m > maxComponent {
		return 0, fmt.Errorf("slurm: duration %q out of range", b)
	}
	totalSec := days*86400 + h*3600 + m*60 + sec
	if totalSec > int64(maxDurationSeconds) {
		return 0, fmt.Errorf("slurm: duration %q out of range", b)
	}
	return time.Duration(totalSec) * time.Second, nil
}

const maxDurationSeconds = int64(^uint64(0)>>1) / int64(time.Second)

// ParseCountBytes parses a Slurm count cell (NNodes, NCPUs, NTasks).
// sacct abbreviates large counts with decimal magnitude suffixes
// (K = 1000, M = 1e6, G = 1e9), optionally with a fraction, e.g. "9.4K"
// nodes. Plain decimal counts decode without strconv; suffixed values
// go to strconv.ParseFloat through a zero-copy view.
func ParseCountBytes(b []byte) (int64, error) {
	t := bytes.TrimSpace(b)
	if len(t) == 0 {
		return 0, fmt.Errorf("slurm: empty count")
	}
	mult := int64(1)
	switch t[len(t)-1] {
	case 'K', 'k':
		mult, t = 1_000, t[:len(t)-1]
	case 'M', 'm':
		mult, t = 1_000_000, t[:len(t)-1]
	case 'G', 'g':
		mult, t = 1_000_000_000, t[:len(t)-1]
	}
	if mult == 1 {
		n, ok := parseInt64Bytes(t)
		if !ok || n < 0 {
			return 0, fmt.Errorf("slurm: bad count %q", b)
		}
		return n, nil
	}
	f, err := strconv.ParseFloat(bstr(t), 64)
	if err != nil || math.IsNaN(f) || math.IsInf(f, 0) || f < 0 || f*float64(mult) > float64(1<<62) {
		return 0, fmt.Errorf("slurm: bad count %q", b)
	}
	return int64(f*float64(mult) + 0.5), nil
}

// ParseMemoryBytes parses a Slurm memory cell (ReqMem, MaxRSS, AveRSS,
// VMSize) into bytes. Slurm memory sizes are binary: 1K = 1024. ReqMem
// carries a per-node ("n") or per-CPU ("c") qualifier which is returned
// separately. The mantissa goes to strconv.ParseFloat through a
// zero-copy view.
func ParseMemoryBytes(b []byte) (bytesOut int64, perCPU bool, err error) {
	t := bytes.TrimSpace(b)
	if len(t) == 0 || (len(t) == 1 && t[0] == '0') {
		return 0, false, nil
	}
	switch t[len(t)-1] {
	case 'n', 'N':
		t = t[:len(t)-1]
	case 'c', 'C':
		perCPU, t = true, t[:len(t)-1]
	}
	mult := int64(1)
	if len(t) > 0 {
		switch t[len(t)-1] {
		case 'K', 'k':
			mult, t = 1<<10, t[:len(t)-1]
		case 'M', 'm':
			mult, t = 1<<20, t[:len(t)-1]
		case 'G', 'g':
			mult, t = 1<<30, t[:len(t)-1]
		case 'T', 't':
			mult, t = 1<<40, t[:len(t)-1]
		}
	}
	f, ferr := strconv.ParseFloat(bstr(t), 64)
	if ferr != nil || math.IsNaN(f) || math.IsInf(f, 0) || f < 0 || f*float64(mult) > float64(1<<62) {
		// string(b), not b: boxing b would make it escape, and with it
		// the TRES cell b is cut from, so ParseTRES's []byte(s) would
		// allocate.
		return 0, false, fmt.Errorf("slurm: bad memory size %q", string(b))
	}
	return int64(f * float64(mult)), perCPU, nil
}

var (
	batchBytes  = []byte("batch")
	externBytes = []byte("extern")
)

// ParseJobIDBytes parses a sacct JobID cell.
func ParseJobIDBytes(b []byte) (JobID, error) {
	t := bytes.TrimSpace(b)
	id := JobID{Array: -1}
	if len(t) == 0 {
		return id, fmt.Errorf("slurm: empty job id")
	}
	var stepPart []byte
	if i := bytes.IndexByte(t, '.'); i >= 0 {
		t, stepPart = t[:i], t[i+1:]
	}
	if i := bytes.IndexByte(t, '_'); i >= 0 {
		a, ok := parseInt64Bytes(t[i+1:])
		if !ok || a < 0 {
			return id, fmt.Errorf("slurm: bad array index in job id %q", b)
		}
		id.Array, t = a, t[:i]
	}
	j, ok := parseInt64Bytes(t)
	if !ok || j <= 0 {
		return id, fmt.Errorf("slurm: bad job id %q", b)
	}
	id.Job = j
	switch {
	case len(stepPart) == 0:
		id.Kind = StepJob
	case bytes.Equal(stepPart, batchBytes):
		id.Kind = StepBatch
	case bytes.Equal(stepPart, externBytes):
		id.Kind = StepExtern
	default:
		n, ok := parseInt64Bytes(stepPart)
		if !ok || n < 0 {
			return id, fmt.Errorf("slurm: bad step in job id %q", b)
		}
		id.Kind, id.Step = StepNumbered, n
	}
	return id, nil
}

// stateIndex maps the canonical (upper-case) state spellings for the
// byte decoder's map fast path; misses fall back to ParseState.
var stateIndex = func() map[string]State {
	m := make(map[string]State, len(stateNames))
	for i, name := range stateNames {
		m[name] = State(i)
	}
	return m
}()

var cancelledBytes = []byte("CANCELLED")

// ParseStateBytes is ParseState for byte slices: canonical spellings hit
// a map lookup; "CANCELLED by <uid>" and case variants take the string
// slow path so semantics stay identical.
func ParseStateBytes(b []byte) (State, error) {
	t := bytes.TrimSpace(b)
	if st, ok := stateIndex[string(t)]; ok { // no alloc: map lookup on []byte key
		return st, nil
	}
	if bytes.HasPrefix(t, cancelledBytes) {
		return StateCancelled, nil
	}
	return ParseState(string(b))
}

// ParseExitCodeBytes parses sacct's "exit:signal" ExitCode cell.
func ParseExitCodeBytes(b []byte) (exit, signal int, err error) {
	t := bytes.TrimSpace(b)
	if len(t) == 0 {
		return 0, 0, nil
	}
	i := bytes.IndexByte(t, ':')
	if i < 0 {
		e, ok := parseInt64Bytes(t)
		if !ok || e != int64(int(e)) {
			return 0, 0, fmt.Errorf("slurm: bad exit code %q", b)
		}
		return int(e), 0, nil
	}
	e, ok1 := parseInt64Bytes(t[:i])
	sig, ok2 := parseInt64Bytes(t[i+1:])
	if !ok1 || !ok2 || e != int64(int(e)) || sig != int64(int(sig)) {
		return 0, 0, fmt.Errorf("slurm: bad exit code %q", b)
	}
	return int(e), int(sig), nil
}
