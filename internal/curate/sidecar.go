package curate

import (
	"fmt"
	"io"
	"strconv"
	"unicode"
	"unicode/utf8"

	"slurmsight/internal/slurm"
)

// colKind is what the sidecar does to a column's cells.
type colKind uint8

const (
	colRaw     colKind = iota // copied through
	colMinutes                // duration → decimal minutes
	colCount                  // abbreviated count → plain integer
)

// columnKinds resolves each column's normalisation once from the header.
func columnKinds(fields []string, opts Options) []colKind {
	kinds := make([]colKind, len(fields))
	for i, f := range fields {
		switch {
		case opts.DurationsAsMinutes && durationFields[f]:
			kinds[i] = colMinutes
		case opts.ExpandCounts && countFields[f]:
			kinds[i] = colCount
		}
	}
	return kinds
}

// appendSidecarHeader appends the sidecar's header row: the input's field
// names, duration columns renamed to their minutes rendition.
func appendSidecarHeader(dst []byte, fields []string, kinds []colKind) []byte {
	for i, f := range fields {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendField(dst, []byte(f))
		if kinds[i] == colMinutes {
			dst = append(dst, "Minutes"...)
		}
	}
	return append(dst, '\n')
}

// rowWriter renders one chunk's kept rows as CSV sidecar rows: each cell
// is normalised straight into one reused buffer — no string per cell —
// and the buffer goes to w each time it passes flushAt. The output is
// what encoding/csv.Writer (Comma ',', UseCRLF false) writes for the same
// cells, byte for byte; FuzzSidecarRowMatchesEncodingCSV holds it to
// that.
type rowWriter struct {
	w      io.Writer
	fields []string
	kinds  []colKind
	buf    []byte
	err    error // first write error; sticky, like csv.Writer's
}

// flushAt is the buffered size past which a row writer writes out, and
// rowHeadroom what its buffer holds beyond that: the row that crosses
// flushAt. A sacct row is well under 4 KiB; a longer one grows the
// buffer once.
const (
	flushAt     = 1 << 16
	rowHeadroom = 4 << 10
)

// newRowWriter sizes the buffer once, for a chunk's worth of rows: the
// curate stage has no short answer for a small buffer to save, unlike
// sacct's textWriter, which grows from empty to keep a short /query
// answer short (DESIGN.md §5l).
func newRowWriter(w io.Writer, fields []string, opts Options) *rowWriter {
	return &rowWriter{w: w, fields: fields, kinds: columnKinds(fields, opts),
		buf: make([]byte, 0, flushAt+rowHeadroom)}
}

// row buffers one row, writing the buffer out when it is full. A cell
// that fails to normalise leaves no partial row behind; a write error is
// also kept in rw.err.
func (rw *rowWriter) row(cells [][]byte) error {
	buf := rw.buf
	for i, c := range cells {
		if i > 0 {
			buf = append(buf, ',')
		}
		// A formatted number never needs quoting: digits, '.', '-'.
		switch rw.kinds[i] {
		case colMinutes:
			d, err := slurm.ParseDurationBytes(c)
			if err != nil {
				return fmt.Errorf("curate: normalising %s: %w", rw.fields[i], err)
			}
			buf = strconv.AppendFloat(buf, d.Minutes(), 'f', 2, 64)
		case colCount:
			n, err := slurm.ParseCountBytes(c)
			if err != nil {
				return fmt.Errorf("curate: normalising %s: %w", rw.fields[i], err)
			}
			buf = strconv.AppendInt(buf, n, 10)
		default:
			buf = appendField(buf, c)
		}
	}
	rw.buf = append(buf, '\n')
	if len(rw.buf) > flushAt {
		return rw.flush()
	}
	return nil
}

// flush writes out what is buffered and returns the first write error.
func (rw *rowWriter) flush() error {
	if rw.err == nil && len(rw.buf) > 0 {
		_, rw.err = rw.w.Write(rw.buf)
	}
	rw.buf = rw.buf[:0]
	return rw.err
}

// appendField appends one field under encoding/csv.Writer's quoting
// rule: quoted when it contains a comma, quote, CR or LF, starts with
// a space (unicode.IsSpace of its first rune), or is exactly `\.`; inside
// quotes a quote is doubled and every other byte is verbatim. The empty
// field is not quoted.
func appendField(dst, f []byte) []byte {
	if !fieldNeedsQuotes(f) {
		return append(dst, f...)
	}
	dst = append(dst, '"')
	for i := 0; i < len(f); i++ {
		if f[i] == '"' {
			dst = append(dst, '"')
		}
		dst = append(dst, f[i])
	}
	return append(dst, '"')
}

func fieldNeedsQuotes(f []byte) bool {
	if len(f) == 0 {
		return false
	}
	if len(f) == 2 && f[0] == '\\' && f[1] == '.' {
		return true
	}
	for i := 0; i < len(f); i++ {
		switch f[i] {
		case ',', '"', '\r', '\n':
			return true
		}
	}
	if f[0] < utf8.RuneSelf {
		return unicode.IsSpace(rune(f[0]))
	}
	r, _ := utf8.DecodeRune(f)
	return unicode.IsSpace(r)
}
