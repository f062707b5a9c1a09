package slurm

import (
	"fmt"
	"iter"
	"strings"
)

// RecordSeq is the streaming record contract threaded through the data
// plane (decode → curate → store → analyze): a pull iterator over
// records. Each yielded pair is either (record, nil) or (nil, err). A
// *RowError marks one malformed data row — producers keep iterating past
// it, so consumers that curate may count and skip it — while any other
// error is terminal and ends the sequence. Yielded records may point
// into producer-owned scratch storage that is reused on the next step;
// consumers that retain a record past one iteration must Clone it.
type RecordSeq = iter.Seq2[*Record, error]

// RowError reports one malformed data row in a record stream. It is the
// non-fatal error kind of RecordSeq: iteration continues past it.
type RowError struct {
	Line int   // 1-based line number in the input (the header is line 1)
	Err  error // what made the row undecodable
}

// Error implements error.
func (e *RowError) Error() string {
	return fmt.Sprintf("slurm: row at line %d: %v", e.Line, e.Err)
}

// Unwrap exposes the underlying decode failure.
func (e *RowError) Unwrap() error { return e.Err }

// resolveHeader maps one raw header line to its field accessors in
// column order. Shared by ByteRecordReader and ChunkScanner so both
// accept exactly the same headers.
func resolveHeader(line string) ([]*Field, []string, error) {
	names := strings.Split(strings.TrimSpace(line), Separator)
	fields := make([]*Field, len(names))
	for i, name := range names {
		f, ok := fieldIndex[strings.ToLower(strings.TrimSpace(name))]
		if !ok {
			return nil, nil, fmt.Errorf("slurm: unknown field %q in header", name)
		}
		fields[i] = f
	}
	return fields, names, nil
}
