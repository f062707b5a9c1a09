package slurm

import "fmt"

// Separator is the column separator sacct uses with --parsable2.
const Separator = "|"

// Header renders the pipe-separated header line for a field selection.
func Header(fields []string) string { return string(appendHeader(nil, fields)) }

func appendHeader(dst []byte, names []string) []byte {
	for i, name := range names {
		if i > 0 {
			dst = append(dst, Separator...)
		}
		dst = append(dst, name...)
	}
	return dst
}

// Encoder renders records as pipe-separated lines for one field
// selection, resolved once by NewEncoder. It is the only text emitter:
// every writer of sacct text holds one and appends rows into a buffer
// of its own, so emitting a row allocates nothing. An Encoder is
// immutable and safe for concurrent use.
type Encoder struct {
	names  []string
	fields []*Field
}

// NewEncoder resolves a field selection. Names are matched
// case-insensitively; an unknown name is an error.
func NewEncoder(names []string) (*Encoder, error) {
	fields := make([]*Field, len(names))
	for i, name := range names {
		if fields[i] = lookupField(name); fields[i] == nil {
			return nil, fmt.Errorf("slurm: unknown field %q", name)
		}
	}
	return &Encoder{names: names, fields: fields}, nil
}

// AppendHeader appends the header line, without its newline, in the
// spelling NewEncoder was given.
func (e *Encoder) AppendHeader(dst []byte) []byte { return appendHeader(dst, e.names) }

// AppendRecord appends the selected fields of r as one line, without
// its newline. Values containing the separator are emitted as-is (sacct
// does the same); the curation stage downstream treats such rows as
// malformed.
func (e *Encoder) AppendRecord(dst []byte, r *Record) []byte {
	for i, f := range e.fields {
		if i > 0 {
			dst = append(dst, Separator...)
		}
		dst = f.Append(dst, r)
	}
	return dst
}

// EncodeRecord renders the named fields of r as one pipe-separated
// line: a one-shot Encoder, for callers with a row or two to render.
func EncodeRecord(r *Record, fields []string) (string, error) {
	e, err := NewEncoder(fields)
	if err != nil {
		return "", err
	}
	return string(e.AppendRecord(nil, r)), nil
}
