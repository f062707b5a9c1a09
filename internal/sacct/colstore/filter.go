package colstore

import (
	"fmt"
	"slices"

	"slurmsight/internal/slurm"
)

// Filter is one step of a cursor's row test: a column and a predicate
// over the field it decodes (the fields of earlier filters are there
// too). A filter built by hand has only Keep, and its column is decoded
// for every row that reaches it. The constructors below also know their
// test in the column's own terms — a step kind, a dictionary index, a
// state ordinal — and ask it of the encoded row: a refused row is stepped
// over without a value being built, and only a kept row is decoded. In a
// trace with steps nine rows in ten fall to JobRows, and a user filter
// keeps one row in a hundred, so that is most of what a miss costs.
type Filter struct {
	Col  ColSet // exactly one column
	Keep func(*slurm.Record) bool

	// raw is Keep asked of the encoded row: it steps d over one row and
	// reports whether Keep would keep it. want is the value an equality
	// test looks for — fixed, or, when equal is set, that string's place
	// in the shard's dictionary (-1 where the dictionary lacks it),
	// resolved at Open.
	raw   func(d *colDecoder, want int) (bool, error)
	want  int
	equal *string
}

// JobRows keeps job rows and drops step rows.
func JobRows() Filter {
	col, _ := ColumnsFor("JobID")
	return Filter{Col: col,
		Keep: func(r *slurm.Record) bool { return !r.IsStep() },
		raw: func(d *colDecoder, _ int) (bool, error) { // job, array, kind, step
			if err := d.r.skipVarints(2); err != nil {
				return false, err
			}
			kind, err := d.r.uvarint()
			if err == nil {
				err = d.r.skipVarints(1)
			}
			return kind == uint64(slurm.StepJob), err
		}}
}

// rawEqual is the encoded test of a column whose rows are one small
// varint each: a dictionary index or a state ordinal.
func rawEqual(d *colDecoder, want int) (bool, error) {
	u, err := d.r.uvarint()
	return u == uint64(want), err // want -1 matches nothing
}

// StateIs keeps rows in state st.
func StateIs(st slurm.State) Filter {
	col, _ := ColumnsFor("State")
	return Filter{Col: col, Keep: func(r *slurm.Record) bool { return r.State == st }, raw: rawEqual, want: int(st)}
}

// Equal keeps rows whose field — one a dictionary column backs, such as
// User, Account or Partition — is exactly want.
func Equal(field, want string) (Filter, error) {
	fld, ok := slurm.FieldByName(field)
	ci, known := lookupColumn(field)
	if !ok || !known || columns[ci].kind != kindDict || columns[ci].load != nil {
		return Filter{}, fmt.Errorf("colstore: no plain dictionary column backs field %q", field)
	}
	return Filter{Col: 1 << ci, Keep: func(r *slurm.Record) bool { return fld.Get(r) == want }, raw: rawEqual, equal: &want}, nil
}

// resolve returns the value f's raw test looks for in a column of cd.
func (f *Filter) resolve(cd *colData) int {
	if f.equal != nil {
		return slices.Index(cd.dict, *f.equal)
	}
	return f.want
}
