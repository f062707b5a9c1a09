package colstore

import (
	"fmt"
	"math/bits"
	"slices"
	"strings"
	"time"

	"slurmsight/internal/slurm"
)

// The column schema: one column per curated slurm field, named exactly
// after the field catalogue so query field selections project directly
// onto column reads. The derived "Backfill" field is the one catalogue
// entry without a column — it reads through "Flags". Column order and
// encodings are pinned by the format Version; changing either requires
// a version bump.

// colDef binds one column's name and encoding to its Record decoder; the
// encoding side is encodeRow (writer.go), one function for every column.
type colDef struct {
	name string
	kind colKind
	dec  func(d *colDecoder, r *slurm.Record) error
	load func(cd *colData) error // optional: derive per-entry state once the dictionary is read
}

// colEncoder accumulates one column region: the row stream plus, for
// dictionary columns, the first-seen-order dictionary.
type colEncoder struct {
	buf     []byte
	prev    int64 // delta chain for time columns
	dict    map[string]uint64
	dictBuf []byte
	keys    []string // tresVal's sort scratch, refilled row after row

	text []byte // a Flags rendering, refilled row after row
}

// reset empties the encoder for a new shard, its row stream in buf and
// its dictionary in dictBuf.
func (e *colEncoder) reset(buf, dictBuf []byte) {
	e.buf, e.dictBuf = buf, dictBuf
	e.prev = 0
	clear(e.dict)
}

func (e *colEncoder) uVal(u uint64) { e.buf = appendUvarint(e.buf, u) }

func (e *colEncoder) intVal(v int64) { e.uVal(zigzag(v)) }

// timeVal delta-encodes a timestamp: 0 marks the zero time (sacct's
// "Unknown") and leaves the delta chain untouched; any other value u
// encodes zigzag(ns−prev)+1.
func (e *colEncoder) timeVal(t time.Time) {
	if t.IsZero() {
		e.uVal(0)
		return
	}
	ns := t.UnixNano()
	e.uVal(zigzag(ns-e.prev) + 1)
	e.prev = ns
}

func (e *colEncoder) dictIdx(s string) uint64 {
	idx, ok := e.dict[s]
	if !ok {
		if e.dict == nil {
			e.dict = make(map[string]uint64)
		}
		idx = uint64(len(e.dict))
		e.dict[s] = idx
		e.dictBuf = appendString(e.dictBuf, s)
	}
	return idx
}

func (e *colEncoder) dictVal(s string) { e.uVal(e.dictIdx(s)) }

// flagsVal dictionary-encodes the joined rendering of flags. The lookup
// allocates only the first time the dictionary meets a rendering.
func (e *colEncoder) flagsVal(r *slurm.Record) {
	e.text = flagsField.Append(e.text[:0], r)
	idx, ok := e.dict[string(e.text)]
	if !ok {
		idx = e.dictIdx(string(e.text))
	}
	e.uVal(idx)
}

// flagsField renders and parses the Flags column's dictionary entries.
var flagsField, _ = slurm.FieldByName("Flags")

// tresVal encodes one TRES map natively — key-dictionary index plus
// zigzag value per entry, keys in sorted order — so the exact int64
// base-unit values survive, unlike the 2-decimal text rendering. The
// leading count is 0 for a nil map, len+1 otherwise (an empty non-nil
// map round-trips as empty, matching the text parser's output).
func (e *colEncoder) tresVal(m slurm.TRES) {
	if m == nil {
		e.uVal(0)
		return
	}
	e.uVal(uint64(len(m)) + 1)
	e.keys = e.keys[:0]
	for k := range m {
		e.keys = append(e.keys, k)
	}
	slices.Sort(e.keys)
	for _, k := range e.keys {
		e.uVal(e.dictIdx(k))
		e.intVal(m[k])
	}
}

// regionLen is the length of the column region the encoder holds.
func (e *colEncoder) regionLen(kind colKind) int {
	n := len(e.buf)
	if kind.hasDict() {
		n += uvarintLen(uint64(len(e.dict))) + len(e.dictBuf)
	}
	return n
}

// appendRegion appends the column region to dst: the dictionary header
// first for dictionary-bearing kinds, then the row stream.
func (e *colEncoder) appendRegion(kind colKind, dst []byte) []byte {
	if kind.hasDict() {
		dst = appendUvarint(dst, uint64(len(e.dict)))
		dst = append(dst, e.dictBuf...)
	}
	return append(dst, e.buf...)
}

// colDecoder walks one column's row stream. It is one projected column
// of a Cursor: the stream position and delta chain are its own, the
// dictionary and Flags splits belong to the shard (colData) and are
// shared by every cursor over it.
type colDecoder struct {
	r    byteReader
	prev int64 // delta chain for time columns
	last int64 // time columns: the row skip last stepped over, noTime for the zero time — what index records
	cd   *colData

	tres slurm.TRES // reused for every row of a TRES column, see tresVal
}

// point aims the decoder at row 0 of a loaded column.
func (d *colDecoder) point(cd *colData) {
	d.r = byteReader{b: cd.rows}
	d.prev, d.cd = 0, cd
}

// seek moves the decoder to the column's nearest checkpoint at or before
// row, and returns the row that is.
func (d *colDecoder) seek(kind colKind, row int) int {
	k := row / seekStride
	d.r.pos = d.cd.seek.off[k]
	if kind == kindTime {
		d.prev = d.cd.seek.prev[k]
	}
	return k * seekStride
}

// rowVarints is how many varints one row of a fixed-width kind holds;
// time rows feed the delta chain and TRES rows carry their own count, so
// skip walks those two value by value.
var rowVarints = [...]int{kindDur: 1, kindInt: 1, kindDict: 1, kindState: 1, kindJobID: 4, kindExit: 2, kindMem: 2, kindTRES: 0}

// skip steps over n rows without building their values: exactly the
// bytes dec would consume, none of its dictionary lookups, time
// conversions or map fills.
func (d *colDecoder) skip(kind colKind, n int) error {
	switch kind {
	case kindTime:
		for ; n > 0; n-- {
			u, err := d.r.uvarint()
			if err != nil {
				return err
			}
			if d.last = noTime; u != 0 {
				d.prev += unzigzag(u - 1)
				d.last = d.prev
			}
		}
		return nil
	case kindTRES:
		for ; n > 0; n-- {
			cnt, err := d.r.uvarint()
			if err != nil {
				return err
			}
			if cnt > uint64(d.r.len())+1 {
				return fmt.Errorf("%w: TRES entry count %d exceeds region", ErrCorrupt, cnt-1)
			}
			if cnt > 1 {
				if err := d.r.skipVarints(2 * int(cnt-1)); err != nil {
					return err
				}
			}
		}
		return nil
	}
	return d.r.skipVarints(n * rowVarints[kind])
}

func (d *colDecoder) timeVal() (time.Time, error) {
	u, err := d.r.uvarint()
	if err != nil || u == 0 {
		return time.Time{}, err
	}
	d.prev += unzigzag(u - 1)
	return time.Unix(0, d.prev).UTC(), nil
}

func (d *colDecoder) dictIdx() (int, error) {
	u, err := d.r.uvarint()
	if err != nil {
		return 0, err
	}
	if u >= uint64(len(d.cd.dict)) {
		return 0, fmt.Errorf("%w: dictionary index %d of %d", ErrCorrupt, u, len(d.cd.dict))
	}
	return int(u), nil
}

// tresVal decodes one natively encoded TRES map into the decoder's one
// map, cleared and refilled row after row: a nil field stays nil and an
// empty one comes back empty, but the map a row returns is only that
// row's until the next call.
func (d *colDecoder) tresVal() (slurm.TRES, error) {
	n, err := d.r.uvarint()
	if err != nil || n == 0 {
		return nil, err
	}
	n--
	if n > uint64(d.r.len()) { // each entry needs ≥2 bytes
		return nil, fmt.Errorf("%w: TRES entry count %d exceeds region", ErrCorrupt, n)
	}
	if d.tres == nil {
		d.tres = make(slurm.TRES, n)
	}
	clear(d.tres)
	for i := uint64(0); i < n; i++ {
		idx, err := d.dictIdx()
		if err != nil {
			return nil, err
		}
		v, err := d.r.varint()
		if err != nil {
			return nil, err
		}
		d.tres[d.cd.dict[idx]] = v
	}
	return d.tres, nil
}

// --- column constructors ---

func timeCol(name string, at func(*slurm.Record) *time.Time) colDef {
	return colDef{name: name, kind: kindTime,
		dec: func(d *colDecoder, r *slurm.Record) error {
			t, err := d.timeVal()
			if err != nil {
				return err
			}
			*at(r) = t
			return nil
		}}
}

func durCol(name string, at func(*slurm.Record) *time.Duration) colDef {
	return colDef{name: name, kind: kindDur,
		dec: func(d *colDecoder, r *slurm.Record) error {
			v, err := d.r.varint()
			if err != nil {
				return err
			}
			*at(r) = time.Duration(v)
			return nil
		}}
}

func intCol(name string, at func(*slurm.Record) *int64) colDef {
	return colDef{name: name, kind: kindInt,
		dec: func(d *colDecoder, r *slurm.Record) error {
			v, err := d.r.varint()
			if err != nil {
				return err
			}
			*at(r) = v
			return nil
		}}
}

func dictCol(name string, at func(*slurm.Record) *string) colDef {
	return colDef{name: name, kind: kindDict,
		dec: func(d *colDecoder, r *slurm.Record) error {
			idx, err := d.dictIdx()
			if err != nil {
				return err
			}
			*at(r) = d.cd.dict[idx]
			return nil
		}}
}

// stateCount bounds the State ordinal check on decode.
var stateCount = len(slurm.States())

func stateCol() colDef {
	return colDef{name: "State", kind: kindState,
		dec: func(d *colDecoder, r *slurm.Record) error {
			u, err := d.r.uvarint()
			if err != nil {
				return err
			}
			if u >= uint64(stateCount) {
				return fmt.Errorf("%w: state ordinal %d of %d", ErrCorrupt, u, stateCount)
			}
			r.State = slurm.State(u)
			return nil
		}}
}

func jobIDCol() colDef {
	return colDef{name: "JobID", kind: kindJobID,
		dec: func(d *colDecoder, r *slurm.Record) error {
			job, err := d.r.varint()
			if err != nil {
				return err
			}
			arr, err := d.r.varint()
			if err != nil {
				return err
			}
			kind, err := d.r.uvarint()
			if err != nil {
				return err
			}
			if kind > uint64(slurm.StepNumbered) {
				return fmt.Errorf("%w: job-id step kind %d", ErrCorrupt, kind)
			}
			step, err := d.r.varint()
			if err != nil {
				return err
			}
			r.ID = slurm.JobID{Job: job, Array: arr, Kind: slurm.StepKind(kind), Step: step}
			return nil
		}}
}

func exitCol() colDef {
	return colDef{name: "ExitCode", kind: kindExit,
		dec: func(d *colDecoder, r *slurm.Record) error {
			code, err := d.r.varint()
			if err != nil {
				return err
			}
			sig, err := d.r.varint()
			if err != nil {
				return err
			}
			r.ExitCode, r.ExitSignal = int(code), int(sig)
			return nil
		}}
}

func memCol() colDef {
	return colDef{name: "ReqMem", kind: kindMem,
		dec: func(d *colDecoder, r *slurm.Record) error {
			v, err := d.r.varint()
			if err != nil {
				return err
			}
			per, err := d.r.uvarint()
			if err != nil {
				return err
			}
			r.ReqMem, r.ReqMemPerCPU = v, per&1 != 0
			return nil
		}}
}

// flagsCol dictionary-encodes the joined Flags rendering. Each
// dictionary entry is split once, when the column loads; the slices are
// clipped so a consumer append reallocates instead of scribbling on the
// backing every row with that entry shares.
func flagsCol() colDef {
	return colDef{name: "Flags", kind: kindDict,
		dec: func(d *colDecoder, r *slurm.Record) error {
			idx, err := d.dictIdx()
			if err != nil {
				return err
			}
			r.Flags = d.cd.flags[idx]
			return nil
		},
		load: func(cd *colData) error {
			cd.flags = make([][]string, len(cd.dict))
			for i, s := range cd.dict {
				var tmp slurm.Record
				if err := flagsField.Set(&tmp, s); err != nil {
					return fmt.Errorf("%w: flags %q: %v", ErrCorrupt, s, err)
				}
				cd.flags[i] = slices.Clip(tmp.Flags)
			}
			return nil
		}}
}

// tresCol encodes TRES maps natively (key dictionary + int64 values)
// rather than through the text rendering, which rounds byte quantities
// to two decimals and would lose precision on round trip.
func tresCol(name string, at func(*slurm.Record) *slurm.TRES) colDef {
	return colDef{name: name, kind: kindTRES,
		dec: func(d *colDecoder, r *slurm.Record) error {
			m, err := d.tresVal()
			if err != nil {
				return err
			}
			*at(r) = m
			return nil
		}}
}

// columns is the pinned column order: the catalogue order of fields.go
// minus the derived Backfill entry.
var columns = buildColumns()

// columnIndex maps a column name to its place in columns, under both its
// canonical and its lower-cased spelling, so the usual exact lookup does
// not build a lower-cased copy of the name.
var columnIndex = func() map[string]int {
	idx := make(map[string]int, 2*len(columns))
	for i := range columns {
		idx[columns[i].name] = i
		idx[strings.ToLower(columns[i].name)] = i
	}
	return idx
}()

// lookupColumn resolves a column name, case-insensitively.
func lookupColumn(name string) (int, bool) {
	if i, ok := columnIndex[name]; ok {
		return i, true
	}
	i, ok := columnIndex[strings.ToLower(strings.TrimSpace(name))]
	return i, ok
}

func buildColumns() []colDef {
	return []colDef{
		// Job identification.
		jobIDCol(),
		dictCol("JobName", func(r *slurm.Record) *string { return &r.JobName }),
		dictCol("User", func(r *slurm.Record) *string { return &r.User }),
		intCol("UID", func(r *slurm.Record) *int64 { return &r.UID }),
		dictCol("Group", func(r *slurm.Record) *string { return &r.Group }),
		dictCol("Account", func(r *slurm.Record) *string { return &r.Account }),
		dictCol("Cluster", func(r *slurm.Record) *string { return &r.Cluster }),
		dictCol("Partition", func(r *slurm.Record) *string { return &r.Partition }),
		dictCol("Reservation", func(r *slurm.Record) *string { return &r.Reservation }),
		intCol("ReservationID", func(r *slurm.Record) *int64 { return &r.ReservationID }),
		// Timing.
		timeCol("Submit", func(r *slurm.Record) *time.Time { return &r.Submit }),
		timeCol("Start", func(r *slurm.Record) *time.Time { return &r.Start }),
		timeCol("End", func(r *slurm.Record) *time.Time { return &r.End }),
		durCol("Elapsed", func(r *slurm.Record) *time.Duration { return &r.Elapsed }),
		durCol("Timelimit", func(r *slurm.Record) *time.Duration { return &r.Timelimit }),
		// Resource requests.
		intCol("NNodes", func(r *slurm.Record) *int64 { return &r.NNodes }),
		intCol("NCPUS", func(r *slurm.Record) *int64 { return &r.NCPUs }),
		intCol("NTasks", func(r *slurm.Record) *int64 { return &r.NTasks }),
		intCol("ReqNodes", func(r *slurm.Record) *int64 { return &r.ReqNodes }),
		intCol("ReqCPUS", func(r *slurm.Record) *int64 { return &r.ReqCPUs }),
		memCol(),
		dictCol("ReqGRES", func(r *slurm.Record) *string { return &r.ReqGRES }),
		dictCol("Licenses", func(r *slurm.Record) *string { return &r.Licenses }),
		dictCol("Layout", func(r *slurm.Record) *string { return &r.Layout }),
		// Resource usage.
		intCol("VMSize", func(r *slurm.Record) *int64 { return &r.VMSize }),
		intCol("MaxVMSize", func(r *slurm.Record) *int64 { return &r.MaxVMSize }),
		durCol("AveCPU", func(r *slurm.Record) *time.Duration { return &r.AveCPU }),
		intCol("MaxRSS", func(r *slurm.Record) *int64 { return &r.MaxRSS }),
		intCol("AveRSS", func(r *slurm.Record) *int64 { return &r.AveRSS }),
		intCol("AvePages", func(r *slurm.Record) *int64 { return &r.AvePages }),
		durCol("TotalCPU", func(r *slurm.Record) *time.Duration { return &r.TotalCPU }),
		durCol("UserCPU", func(r *slurm.Record) *time.Duration { return &r.UserCPU }),
		durCol("SystemCPU", func(r *slurm.Record) *time.Duration { return &r.SystemCPU }),
		dictCol("NodeList", func(r *slurm.Record) *string { return &r.NodeList }),
		intCol("ConsumedEnergy", func(r *slurm.Record) *int64 { return &r.ConsumedEnergy }),
		// IO.
		dictCol("WorkDir", func(r *slurm.Record) *string { return &r.WorkDir }),
		intCol("AveDiskRead", func(r *slurm.Record) *int64 { return &r.AveDiskRead }),
		intCol("AveDiskWrite", func(r *slurm.Record) *int64 { return &r.AveDiskWrite }),
		intCol("MaxDiskRead", func(r *slurm.Record) *int64 { return &r.MaxDiskRead }),
		intCol("MaxDiskWrite", func(r *slurm.Record) *int64 { return &r.MaxDiskWrite }),
		// Job state.
		stateCol(),
		exitCol(),
		dictCol("DerivedExitCode", func(r *slurm.Record) *string { return &r.DerivedExitCode }),
		dictCol("Reason", func(r *slurm.Record) *string { return &r.Reason }),
		durCol("Suspended", func(r *slurm.Record) *time.Duration { return &r.Suspended }),
		intCol("Restarts", func(r *slurm.Record) *int64 { return &r.Restarts }),
		dictCol("Constraints", func(r *slurm.Record) *string { return &r.Constraints }),
		// Scheduling metadata.
		intCol("Priority", func(r *slurm.Record) *int64 { return &r.Priority }),
		timeCol("Eligible", func(r *slurm.Record) *time.Time { return &r.Eligible }),
		dictCol("QOS", func(r *slurm.Record) *string { return &r.QOS }),
		dictCol("QOSReq", func(r *slurm.Record) *string { return &r.QOSReq }),
		flagsCol(),
		tresCol("TRESUsageInAve", func(r *slurm.Record) *slurm.TRES { return &r.TRESUsageInAve }),
		tresCol("ReqTRES", func(r *slurm.Record) *slurm.TRES { return &r.TRESReq }),
		// Special indicators.
		dictCol("Dependency", func(r *slurm.Record) *string { return &r.Dependency }),
		intCol("ArrayJobID", func(r *slurm.Record) *int64 { return &r.ArrayJobID }),
		// Misc.
		dictCol("Comment", func(r *slurm.Record) *string { return &r.Comment }),
		dictCol("SystemComment", func(r *slurm.Record) *string { return &r.SystemComment }),
		dictCol("AdminComment", func(r *slurm.Record) *string { return &r.AdminComment }),
	}
}

// ColumnNames returns the canonical column names in pinned order.
func ColumnNames() []string { return AllColumns.Names() }

// ColSet is a set of columns, one bit per entry of the pinned order: what
// a Cursor projects. The zero value is empty.
type ColSet uint64

// AllColumns is the full projection.
const AllColumns = ColSet(1)<<numColumns - 1

// numColumns is len(columns); init checks the two agree and that a
// ColSet has a bit for each.
const numColumns = 59

func init() {
	if len(columns) != numColumns || numColumns > 64 {
		panic(fmt.Sprintf("colstore: %d columns in the schema, numColumns = %d", len(columns), numColumns))
	}
}

// Len returns the number of columns in the set.
func (c ColSet) Len() int { return bits.OnesCount64(uint64(c)) }

// Names returns the set's column names in pinned order.
func (c ColSet) Names() []string {
	out := make([]string, 0, c.Len())
	for ; c != 0; c &= c - 1 {
		out = append(out, columns[bits.TrailingZeros64(uint64(c))].name)
	}
	return out
}

// ColumnsFor maps a slurm field selection to the columns that back it:
// each field's own column, with the derived Backfill field reading
// through Flags. Unknown fields are an error.
func ColumnsFor(fields ...string) (ColSet, error) {
	var set ColSet
	for _, f := range fields {
		i, ok := lookupColumn(f)
		if !ok && strings.EqualFold(strings.TrimSpace(f), "backfill") {
			i, ok = lookupColumn("Flags")
		}
		if !ok {
			return 0, fmt.Errorf("colstore: no column backs field %q", f)
		}
		set |= 1 << i
	}
	return set, nil
}
