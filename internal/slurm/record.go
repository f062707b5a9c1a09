package slurm

import (
	"slices"
	"strings"
	"time"
)

// Record is one sacct accounting row: either a job or one of its steps.
// Fields are the typed forms of the Table 1 selection; text encoding and
// decoding go through the field registry in fields.go.
type Record struct {
	// Job identification.
	ID            JobID
	JobName       string
	User          string
	UID           int64
	Group         string
	Account       string
	Partition     string
	Cluster       string
	Reservation   string
	ReservationID int64

	// Timing.
	Submit    time.Time
	Eligible  time.Time
	Start     time.Time
	End       time.Time
	Elapsed   time.Duration
	Timelimit time.Duration

	// Resource requests.
	NNodes       int64
	NCPUs        int64
	NTasks       int64
	ReqNodes     int64
	ReqCPUs      int64
	ReqMem       int64 // bytes
	ReqMemPerCPU bool
	ReqGRES      string
	Licenses     string
	Layout       string

	// Resource usage.
	VMSize         int64 // bytes
	MaxVMSize      int64 // bytes
	AveCPU         time.Duration
	MaxRSS         int64 // bytes
	AveRSS         int64 // bytes
	AvePages       int64
	TotalCPU       time.Duration
	UserCPU        time.Duration
	SystemCPU      time.Duration
	NodeList       string
	ConsumedEnergy int64 // joules

	// IO.
	WorkDir      string
	AveDiskRead  int64 // bytes
	AveDiskWrite int64
	MaxDiskRead  int64
	MaxDiskWrite int64

	// Job state.
	State           State
	ExitCode        int
	ExitSignal      int
	DerivedExitCode string
	Reason          string
	Suspended       time.Duration
	Restarts        int64
	Constraints     string

	// Scheduling metadata.
	Priority       int64
	QOS            string
	QOSReq         string
	Flags          []string
	TRESUsageInAve TRES
	TRESReq        TRES

	// Special indicators.
	Dependency string
	ArrayJobID int64 // 0 when not part of an array

	// Misc.
	Comment       string
	SystemComment string
	AdminComment  string
}

// Clone returns a copy of r that shares nothing a producer rewrites: the
// TRES maps are copied (nil stays nil, empty stays empty). It is what a
// consumer of a RecordSeq calls to keep a record past the iteration that
// yielded it: both row producers, ByteRecordReader and colstore.Cursor,
// clear and refill one pair of TRES maps row after row, so a shallow
// copy of the struct is not the row's own. Flags still points at the
// same strings — producers share one immutable slice between every row
// with the same flags — clipped, so that an append to the copy's cannot
// reach them.
func (r *Record) Clone() Record {
	c := *r
	c.Flags = slices.Clip(r.Flags)
	c.TRESUsageInAve = r.TRESUsageInAve.Clone()
	c.TRESReq = r.TRESReq.Clone()
	return c
}

// FlagBackfill is the Flags entry Slurm sets on jobs started by the
// backfill scheduler; the paper derives its Backfill indicator from it.
const FlagBackfill = "SchedBackfill"

// FlagMain marks jobs started by the main (priority-order) scheduling loop.
const FlagMain = "SchedMain"

// Backfilled reports whether the job was started by the backfill scheduler.
func (r *Record) Backfilled() bool {
	for _, f := range r.Flags {
		if f == FlagBackfill {
			return true
		}
	}
	return false
}

// WaitTime returns the queue wait (Start − Submit). Jobs that never
// started report the zero duration and ok=false.
func (r *Record) WaitTime() (time.Duration, bool) {
	if r.Start.IsZero() || r.Submit.IsZero() || r.Start.Before(r.Submit) {
		return 0, false
	}
	return r.Start.Sub(r.Submit), true
}

// WalltimeSlack returns Timelimit − Elapsed, the unused portion of the
// user's request; negative only for TIMEOUT overruns past the grace period.
func (r *Record) WalltimeSlack() time.Duration { return r.Timelimit - r.Elapsed }

// IsStep reports whether this record is a step rather than a job.
func (r *Record) IsStep() bool { return r.ID.IsStep() }

// Year returns the submission year, used for Figure 1 binning.
func (r *Record) Year() int { return r.Submit.Year() }

// appendFlags appends Flags comma-joined, the way sacct renders them.
func (r *Record) appendFlags(dst []byte) []byte {
	for i, f := range r.Flags {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, f...)
	}
	return dst
}

func (r *Record) setFlags(s string) {
	s = strings.TrimSpace(s)
	if s == "" {
		r.Flags = nil
		return
	}
	parts := strings.Split(s, ",")
	out := parts[:0]
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	r.Flags = out
}
