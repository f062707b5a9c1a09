package colstore

import "math/bits"

// Stats is a point-in-time snapshot of a file's read-side counters, the
// ones Instrument publishes: the projection proof. BytesRead counts only
// the column regions a cursor projected (plus the footer), so a
// two-field query over a 59-column shard shows two columns' bytes, not
// the shard's.
type Stats struct {
	ShardsOpened int64 // shards a cursor was opened over
	ColumnsRead  int64 // column regions projected (every open counts)
	BytesRead    int64 // bytes of those regions + footer bytes
	BytesMapped  int64 // bytes of file mapped (or read on the fallback path)
	RowsDecoded  int64 // rows cursors stepped over
}

// Stats snapshots the read counters.
func (f *File) Stats() Stats {
	return Stats{
		ShardsOpened: f.shardsOpened.Load(),
		ColumnsRead:  f.columnsRead.Load(),
		BytesRead:    f.bytesRead.Load(),
		BytesMapped:  int64(len(f.data)),
		RowsDecoded:  f.rowsDecoded.Load(),
	}
}

// ColumnBytes returns the stored size of one column region, 0 when the
// column is unknown.
func (s *Shard) ColumnBytes(name string) int64 {
	if ci, ok := lookupColumn(name); ok && s.cols[ci].meta != nil {
		return int64(s.cols[ci].meta.length)
	}
	return 0
}

// Names returns the set's column names in pinned order.
func (c ColSet) Names() []string {
	out := make([]string, 0, c.Len())
	for ; c != 0; c &= c - 1 {
		out = append(out, columns[bits.TrailingZeros64(uint64(c))].name)
	}
	return out
}
