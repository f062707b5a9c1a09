package colstore

import (
	"context"
	"fmt"
	"math/bits"

	"slurmsight/internal/slurm"
)

// Cursor is the one way a shard's rows are read: it steps a projection of
// the columns in lockstep into a single reused slurm.Record. Unprojected
// fields stay zero. The record Next returns — its TRES maps included,
// which are cleared and refilled row after row — is valid only until the
// following Next or Open; a consumer that keeps a row clones it
// (slurm.Record.Clone). Steady-state Next allocates nothing.
//
// A cursor is built once per scan and re-pointed from shard to shard with
// Open. It is not safe for concurrent use; any number of cursors may read
// one shard at once.
type Cursor struct {
	rec  slurm.Record
	set  ColSet
	cols []cursorCol // the filters' columns in filter order, then the rest in pinned order

	sh       *Shard
	row, end int   // next row to step, and where to stop
	stepped  int64 // rows stepped on sh and not yet charged to the file's counters
}

// cursorCol is one projected column. Columns move independently: one that
// a rejected row never reached stays behind, and steps over the rows it
// missed — without building a value — when an accepted row next needs it.
type cursorCol struct {
	def    *colDef
	ci     int
	filter *Filter // a filter column's test
	want   int     // what filter.raw looks for in the open shard
	row    int     // the row dec stands in front of
	dec    colDecoder
}

// NewCursor builds a cursor over the columns in cols and the filters'
// own. Each row is tested filter by filter, in the order given, each
// filter's column read just before its test is asked: the first refusal
// rejects the row, and whatever columns it had not reached are stepped
// over later, undecoded. Cheap, selective filters go first.
func NewCursor(filters []Filter, cols ColSet) *Cursor {
	var filtered ColSet
	for _, f := range filters {
		filtered |= f.Col
	}
	cols |= filtered
	c := &Cursor{set: cols, cols: make([]cursorCol, 0, cols.Len())}
	add := func(set ColSet, f *Filter) {
		for ; set != 0; set &= set - 1 {
			ci := bits.TrailingZeros64(uint64(set))
			c.cols = append(c.cols, cursorCol{def: &columns[ci], ci: ci, filter: f})
		}
	}
	for i := range filters {
		add(filters[i].Col, &filters[i])
	}
	add(cols&^filtered, nil)
	return c
}

// Open points the cursor at the first row of sh, loading any projected
// column no cursor has read before (Shard.Load): a checksum failure or a
// malformed column in the projection is Open's error, before a row is
// yielded.
func (c *Cursor) Open(ctx context.Context, sh *Shard) error {
	c.Close()
	if sh.f.data == nil {
		return fmt.Errorf("colstore: %s: file is closed", sh.f.path)
	}
	if err := sh.Load(ctx, c.set); err != nil {
		return err
	}
	var bytes int64
	for i := range c.cols {
		col := &c.cols[i]
		cd := &sh.cols[col.ci]
		col.dec.point(cd)
		col.row = 0
		if col.filter != nil {
			col.want = col.filter.resolve(cd)
		}
		bytes += int64(cd.meta.length)
	}
	c.sh, c.row, c.end = sh, 0, sh.meta.rows
	f := sh.f
	f.shardsOpened.Add(1)
	f.columnsRead.Add(int64(len(c.cols)))
	f.bytesRead.Add(bytes)
	f.cShards.Inc()
	f.cColumns.Add(int64(len(c.cols)))
	f.cBytes.Add(bytes)
	return nil
}

// Seek narrows the open shard to rows [lo, hi): the next Next steps row
// lo. Each column lands on its checkpoint at or before lo; the rows
// between are stepped over when the column is next read.
func (c *Cursor) Seek(lo, hi int) {
	lo = max(0, min(lo, c.sh.meta.rows))
	c.row, c.end = lo, max(lo, min(hi, c.sh.meta.rows))
	if lo == c.sh.meta.rows {
		return
	}
	for i := range c.cols {
		c.cols[i].row = c.cols[i].dec.seek(c.cols[i].def.kind, lo)
	}
}

// Next steps to the following row every filter keeps and returns it, or
// nil at the end of the shard (or of the rows Seek left).
func (c *Cursor) Next() (*slurm.Record, error) {
rows:
	for c.row < c.end {
		row := c.row
		c.row++
		c.stepped++
		for i := range c.cols {
			col := &c.cols[i]
			if n := row - col.row; n > 0 {
				if err := col.dec.skip(col.def.kind, n); err != nil {
					return nil, c.rowErr(col, row, err)
				}
			}
			col.row = row + 1
			if col.filter != nil && col.filter.raw != nil {
				at := col.dec.r.pos
				if ok, err := col.filter.raw(&col.dec, col.want); err != nil {
					return nil, c.rowErr(col, row, err)
				} else if !ok {
					continue rows
				}
				col.dec.r.pos = at // kept: decode it after all
			}
			if err := col.def.dec(&col.dec, &c.rec); err != nil {
				return nil, c.rowErr(col, row, err)
			}
			if col.filter != nil && !col.filter.Keep(&c.rec) {
				continue rows
			}
		}
		return &c.rec, nil
	}
	return nil, nil
}

func (c *Cursor) rowErr(col *cursorCol, row int, err error) error {
	return fmt.Errorf("shard %s column %s row %d: %w", c.sh, col.def.name, row, err)
}

// Close ends the cursor's stay on its shard, charging the rows it stepped
// to the file's read counters. A cursor dropped without it loses nothing
// but that count.
func (c *Cursor) Close() {
	if c.sh != nil && c.stepped > 0 {
		c.sh.f.rowsDecoded.Add(c.stepped)
		c.sh.f.cRows.Add(c.stepped)
	}
	c.sh, c.stepped = nil, 0
}
