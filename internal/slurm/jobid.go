package slurm

import "strconv"

// StepKind distinguishes the pseudo-steps Slurm creates for every job from
// the numbered steps launched by srun.
type StepKind int

const (
	// StepJob marks the job-level record itself ("12345").
	StepJob StepKind = iota
	// StepBatch marks the batch script pseudo-step ("12345.batch").
	StepBatch
	// StepExtern marks the external/prolog pseudo-step ("12345.extern").
	StepExtern
	// StepNumbered marks an srun-launched step ("12345.0", "12345.1", …).
	StepNumbered
)

// JobID identifies a job, array task, or job step the way sacct prints
// them: "123", "123.batch", "123.7", "123_4" (array task), "123_4.2".
type JobID struct {
	Job   int64    // base job id
	Array int64    // array task index, -1 when not an array task
	Kind  StepKind // which record this identifies
	Step  int64    // step number when Kind == StepNumbered
}

// NewJobID returns the job-level ID for job.
func NewJobID(job int64) JobID { return JobID{Job: job, Array: -1} }

// WithStep returns the numbered-step ID for this job.
func (id JobID) WithStep(n int64) JobID {
	id.Kind, id.Step = StepNumbered, n
	return id
}

// WithBatch returns the batch pseudo-step ID for this job.
func (id JobID) WithBatch() JobID {
	id.Kind, id.Step = StepBatch, 0
	return id
}

// IsStep reports whether the ID names a step rather than the job itself.
func (id JobID) IsStep() bool { return id.Kind != StepJob }

// Base returns the job-level ID with any step component stripped.
func (id JobID) Base() JobID {
	id.Kind, id.Step = StepJob, 0
	return id
}

// String renders the ID in sacct form.
func (id JobID) String() string {
	var buf [32]byte
	return string(id.Append(buf[:0]))
}

// Append appends the ID in sacct form.
func (id JobID) Append(dst []byte) []byte {
	dst = strconv.AppendInt(dst, id.Job, 10)
	if id.Array >= 0 {
		dst = append(dst, '_')
		dst = strconv.AppendInt(dst, id.Array, 10)
	}
	switch id.Kind {
	case StepBatch:
		dst = append(dst, ".batch"...)
	case StepExtern:
		dst = append(dst, ".extern"...)
	case StepNumbered:
		dst = append(dst, '.')
		dst = strconv.AppendInt(dst, id.Step, 10)
	}
	return dst
}

// CompareJobID orders IDs by job, then array index, then step kind, then
// step number — the order sacct emits records in.
func CompareJobID(a, b JobID) int {
	switch {
	case a.Job != b.Job:
		return cmp64(a.Job, b.Job)
	case a.Array != b.Array:
		return cmp64(a.Array, b.Array)
	case a.Kind != b.Kind:
		return int(a.Kind) - int(b.Kind)
	default:
		return cmp64(a.Step, b.Step)
	}
}

func cmp64(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}
