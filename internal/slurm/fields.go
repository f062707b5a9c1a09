package slurm

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Category groups accounting fields the way Table 1 of the paper does.
type Category string

// The nine Table 1 categories.
const (
	CatIdentification Category = "Job Identification"
	CatTiming         Category = "Timing Information"
	CatRequests       Category = "Resource Requests"
	CatUsage          Category = "Resource Usage"
	CatIO             Category = "IO Related"
	CatState          Category = "Job State"
	CatScheduling     Category = "Scheduling Metadata"
	CatSpecial        Category = "Special Indicators"
	CatMisc           Category = "Misc"
)

// Field describes one accounting column: its Table 1 category and the
// accessors that render and parse its text form in sacct output.
// Append and Get render the same text: Append onto dst without
// allocating (the emit plane's path), Get as a string. A catalogue
// entry writes exactly one of the two — Get where the text already
// exists as a string, Append where it has to be formatted — and
// addField derives the other, so no column has two renderings.
// Decoding has one setter per column too: SetBytes on the typed columns,
// which parses the cell in place and must not retain the byte slice,
// and Set on the free-form string columns and Flags, which stores the
// string it is given (ByteRecordReader hands it an interned copy of the
// cell). Exactly one of the two is non-nil.
type Field struct {
	Name     string
	Category Category
	Doc      string
	Get      func(*Record) string
	Append   func(dst []byte, r *Record) []byte
	Set      func(*Record, string) error
	SetBytes func(*Record, []byte) error
}

func intField(get func(*Record) int64, set func(*Record, int64)) (func([]byte, *Record) []byte, func(*Record, []byte) error) {
	return func(dst []byte, r *Record) []byte { return strconv.AppendInt(dst, get(r), 10) },
		func(r *Record, b []byte) error {
			n, err := ParseCountBytes(b)
			if err != nil {
				return err
			}
			set(r, n)
			return nil
		}
}

func strField(get func(*Record) string, set func(*Record, string)) (func(*Record) string, func(*Record, string) error) {
	return get, func(r *Record, s string) error { set(r, s); return nil }
}

// catalogue is the ordered Table 1 selection. Built once at init.
var catalogue []Field

// fieldIndex maps field names to catalogue positions, under both the
// canonical spelling and its lower-cased form.
var fieldIndex map[string]int

// addField appends f to the catalogue, deriving whichever of Get and
// Append the entry left out from the one it wrote.
func addField(f Field) {
	switch {
	case f.Append == nil:
		get := f.Get
		f.Append = func(dst []byte, r *Record) []byte { return append(dst, get(r)...) }
	case f.Get == nil:
		app := f.Append
		f.Get = func(r *Record) string { return string(app(nil, r)) }
	}
	catalogue = append(catalogue, f)
}

// The catalogue entries ByteRecordReader special-cases. Flags' Set
// splits a flag list per call, so the byte decoder swaps in a cached
// pre-split slice instead; the two TRES columns' SetBytes build a map
// per call, so it refills a map of its own instead.
var flagsField, reqTRESField, usageTRESField *Field

func init() {
	defineFields()
	fieldIndex = make(map[string]int, 2*len(catalogue))
	for i := range catalogue {
		fieldIndex[catalogue[i].Name] = i
		fieldIndex[strings.ToLower(catalogue[i].Name)] = i
	}
	flagsField = lookupField("flags")
	reqTRESField, usageTRESField = lookupField("reqtres"), lookupField("tresusageinave")
}

func defineFields() {
	// --- Job Identification ---
	addField(Field{Name: "JobID", Category: CatIdentification,
		Doc:    "job, array-task, or step identifier",
		Append: func(dst []byte, r *Record) []byte { return r.ID.Append(dst) },
		SetBytes: func(r *Record, b []byte) error {
			id, err := ParseJobIDBytes(b)
			if err != nil {
				return err
			}
			r.ID = id
			return nil
		}})
	g, s := strField(func(r *Record) string { return r.JobName }, func(r *Record, v string) { r.JobName = v })
	addField(Field{Name: "JobName", Category: CatIdentification, Doc: "user-supplied job name", Get: g, Set: s})
	g, s = strField(func(r *Record) string { return r.User }, func(r *Record, v string) { r.User = v })
	addField(Field{Name: "User", Category: CatIdentification, Doc: "submitting user", Get: g, Set: s})
	gi, sbi := intField(func(r *Record) int64 { return r.UID }, func(r *Record, v int64) { r.UID = v })
	addField(Field{Name: "UID", Category: CatIdentification, Doc: "submitting user id", Append: gi, SetBytes: sbi})
	g, s = strField(func(r *Record) string { return r.Group }, func(r *Record, v string) { r.Group = v })
	addField(Field{Name: "Group", Category: CatIdentification, Doc: "submitting group", Get: g, Set: s})
	g, s = strField(func(r *Record) string { return r.Account }, func(r *Record, v string) { r.Account = v })
	addField(Field{Name: "Account", Category: CatIdentification, Doc: "charge account (project)", Get: g, Set: s})
	g, s = strField(func(r *Record) string { return r.Cluster }, func(r *Record, v string) { r.Cluster = v })
	addField(Field{Name: "Cluster", Category: CatIdentification, Doc: "cluster name", Get: g, Set: s})
	g, s = strField(func(r *Record) string { return r.Partition }, func(r *Record, v string) { r.Partition = v })
	addField(Field{Name: "Partition", Category: CatIdentification, Doc: "partition the job ran in", Get: g, Set: s})
	g, s = strField(func(r *Record) string { return r.Reservation }, func(r *Record, v string) { r.Reservation = v })
	addField(Field{Name: "Reservation", Category: CatIdentification, Doc: "advance reservation name", Get: g, Set: s})
	gi, sbi = intField(func(r *Record) int64 { return r.ReservationID }, func(r *Record, v int64) { r.ReservationID = v })
	addField(Field{Name: "ReservationID", Category: CatIdentification, Doc: "advance reservation id", Append: gi, SetBytes: sbi})

	// --- Timing Information ---
	addTimestamp("Submit", CatTiming, "submission time",
		func(r *Record) *timeRef { return (*timeRef)(&r.Submit) })
	addTimestamp("Start", CatTiming, "dispatch time",
		func(r *Record) *timeRef { return (*timeRef)(&r.Start) })
	addTimestamp("End", CatTiming, "termination time",
		func(r *Record) *timeRef { return (*timeRef)(&r.End) })
	addDuration("Elapsed", CatTiming, "wall-clock runtime",
		func(r *Record) *durRef { return (*durRef)(&r.Elapsed) })
	addDuration("Timelimit", CatTiming, "requested walltime limit",
		func(r *Record) *durRef { return (*durRef)(&r.Timelimit) })

	// --- Resource Requests ---
	gi, sbi = intField(func(r *Record) int64 { return r.NNodes }, func(r *Record, v int64) { r.NNodes = v })
	addField(Field{Name: "NNodes", Category: CatRequests, Doc: "allocated node count", Append: gi, SetBytes: sbi})
	gi, sbi = intField(func(r *Record) int64 { return r.NCPUs }, func(r *Record, v int64) { r.NCPUs = v })
	addField(Field{Name: "NCPUS", Category: CatRequests, Doc: "allocated CPU count", Append: gi, SetBytes: sbi})
	gi, sbi = intField(func(r *Record) int64 { return r.NTasks }, func(r *Record, v int64) { r.NTasks = v })
	addField(Field{Name: "NTasks", Category: CatRequests, Doc: "task count (steps)", Append: gi, SetBytes: sbi})
	gi, sbi = intField(func(r *Record) int64 { return r.ReqNodes }, func(r *Record, v int64) { r.ReqNodes = v })
	addField(Field{Name: "ReqNodes", Category: CatRequests, Doc: "requested node count", Append: gi, SetBytes: sbi})
	gi, sbi = intField(func(r *Record) int64 { return r.ReqCPUs }, func(r *Record, v int64) { r.ReqCPUs = v })
	addField(Field{Name: "ReqCPUS", Category: CatRequests, Doc: "requested CPU count", Append: gi, SetBytes: sbi})
	addField(Field{Name: "ReqMem", Category: CatRequests, Doc: "requested memory",
		Append: func(dst []byte, r *Record) []byte { return AppendMemory(dst, r.ReqMem, r.ReqMemPerCPU) },
		SetBytes: func(r *Record, b []byte) error {
			v, perCPU, err := ParseMemoryBytes(b)
			if err != nil {
				return err
			}
			r.ReqMem, r.ReqMemPerCPU = v, perCPU
			return nil
		}})
	g, s = strField(func(r *Record) string { return r.ReqGRES }, func(r *Record, v string) { r.ReqGRES = v })
	addField(Field{Name: "ReqGRES", Category: CatRequests, Doc: "requested generic resources (GPUs)", Get: g, Set: s})
	g, s = strField(func(r *Record) string { return r.Licenses }, func(r *Record, v string) { r.Licenses = v })
	addField(Field{Name: "Licenses", Category: CatRequests, Doc: "requested software licenses", Get: g, Set: s})
	g, s = strField(func(r *Record) string { return r.Layout }, func(r *Record, v string) { r.Layout = v })
	addField(Field{Name: "Layout", Category: CatRequests, Doc: "step task layout", Get: g, Set: s})

	// --- Resource Usage ---
	addBytes("VMSize", CatUsage, "virtual memory high-water mark",
		func(r *Record) *int64 { return &r.VMSize })
	addBytes("MaxVMSize", CatUsage, "maximum virtual memory of any task",
		func(r *Record) *int64 { return &r.MaxVMSize })
	addDuration("AveCPU", CatUsage, "average CPU time per task",
		func(r *Record) *durRef { return (*durRef)(&r.AveCPU) })
	addBytes("MaxRSS", CatUsage, "maximum resident set size",
		func(r *Record) *int64 { return &r.MaxRSS })
	addBytes("AveRSS", CatUsage, "average resident set size",
		func(r *Record) *int64 { return &r.AveRSS })
	gi, sbi = intField(func(r *Record) int64 { return r.AvePages }, func(r *Record, v int64) { r.AvePages = v })
	addField(Field{Name: "AvePages", Category: CatUsage, Doc: "average page faults per task", Append: gi, SetBytes: sbi})
	addDuration("TotalCPU", CatUsage, "total consumed CPU time",
		func(r *Record) *durRef { return (*durRef)(&r.TotalCPU) })
	addDuration("UserCPU", CatUsage, "user-mode CPU time",
		func(r *Record) *durRef { return (*durRef)(&r.UserCPU) })
	addDuration("SystemCPU", CatUsage, "kernel-mode CPU time",
		func(r *Record) *durRef { return (*durRef)(&r.SystemCPU) })
	g, s = strField(func(r *Record) string { return r.NodeList }, func(r *Record, v string) { r.NodeList = v })
	addField(Field{Name: "NodeList", Category: CatUsage, Doc: "allocated node list", Get: g, Set: s})
	gi, sbi = intField(func(r *Record) int64 { return r.ConsumedEnergy }, func(r *Record, v int64) { r.ConsumedEnergy = v })
	addField(Field{Name: "ConsumedEnergy", Category: CatUsage, Doc: "energy consumed (J)", Append: gi, SetBytes: sbi})

	// --- IO Related ---
	g, s = strField(func(r *Record) string { return r.WorkDir }, func(r *Record, v string) { r.WorkDir = v })
	addField(Field{Name: "WorkDir", Category: CatIO, Doc: "working directory", Get: g, Set: s})
	addBytes("AveDiskRead", CatIO, "average bytes read per task", func(r *Record) *int64 { return &r.AveDiskRead })
	addBytes("AveDiskWrite", CatIO, "average bytes written per task", func(r *Record) *int64 { return &r.AveDiskWrite })
	addBytes("MaxDiskRead", CatIO, "maximum bytes read by a task", func(r *Record) *int64 { return &r.MaxDiskRead })
	addBytes("MaxDiskWrite", CatIO, "maximum bytes written by a task", func(r *Record) *int64 { return &r.MaxDiskWrite })

	// --- Job State ---
	addField(Field{Name: "State", Category: CatState, Doc: "terminal job state",
		Get: func(r *Record) string { return r.State.String() },
		SetBytes: func(r *Record, b []byte) error {
			st, err := ParseStateBytes(b)
			if err != nil {
				return err
			}
			r.State = st
			return nil
		}})
	addField(Field{Name: "ExitCode", Category: CatState, Doc: "exit:signal pair",
		Append: func(dst []byte, r *Record) []byte { return AppendExitCode(dst, r.ExitCode, r.ExitSignal) },
		SetBytes: func(r *Record, b []byte) error {
			e, sig, err := ParseExitCodeBytes(b)
			if err != nil {
				return err
			}
			r.ExitCode, r.ExitSignal = e, sig
			return nil
		}})
	g, s = strField(func(r *Record) string { return r.DerivedExitCode }, func(r *Record, v string) { r.DerivedExitCode = v })
	addField(Field{Name: "DerivedExitCode", Category: CatState, Doc: "highest exit code of any step", Get: g, Set: s})
	g, s = strField(func(r *Record) string { return r.Reason }, func(r *Record, v string) { r.Reason = v })
	addField(Field{Name: "Reason", Category: CatState, Doc: "pending/termination reason", Get: g, Set: s})
	addDuration("Suspended", CatState, "time spent suspended",
		func(r *Record) *durRef { return (*durRef)(&r.Suspended) })
	gi, sbi = intField(func(r *Record) int64 { return r.Restarts }, func(r *Record, v int64) { r.Restarts = v })
	addField(Field{Name: "Restarts", Category: CatState, Doc: "requeue/restart count", Append: gi, SetBytes: sbi})
	g, s = strField(func(r *Record) string { return r.Constraints }, func(r *Record, v string) { r.Constraints = v })
	addField(Field{Name: "Constraints", Category: CatState, Doc: "node feature constraints", Get: g, Set: s})

	// --- Scheduling Metadata ---
	gi, sbi = intField(func(r *Record) int64 { return r.Priority }, func(r *Record, v int64) { r.Priority = v })
	addField(Field{Name: "Priority", Category: CatScheduling, Doc: "multifactor priority at dispatch", Append: gi, SetBytes: sbi})
	addTimestamp("Eligible", CatScheduling, "time the job became eligible to run",
		func(r *Record) *timeRef { return (*timeRef)(&r.Eligible) })
	g, s = strField(func(r *Record) string { return r.QOS }, func(r *Record, v string) { r.QOS = v })
	addField(Field{Name: "QOS", Category: CatScheduling, Doc: "quality of service", Get: g, Set: s})
	g, s = strField(func(r *Record) string { return r.QOSReq }, func(r *Record, v string) { r.QOSReq = v })
	addField(Field{Name: "QOSReq", Category: CatScheduling, Doc: "requested quality of service", Get: g, Set: s})
	addField(Field{Name: "Flags", Category: CatScheduling, Doc: "scheduler flags (SchedBackfill, SchedMain)",
		Append: func(dst []byte, r *Record) []byte { return r.appendFlags(dst) },
		Set:    func(r *Record, s string) error { r.setFlags(s); return nil }})
	addField(Field{Name: "TRESUsageInAve", Category: CatScheduling, Doc: "average trackable-resource usage",
		Append: func(dst []byte, r *Record) []byte { return r.TRESUsageInAve.Append(dst) },
		SetBytes: func(r *Record, b []byte) (err error) {
			// A blank cell is nil, which renders identically to an empty map.
			var t TRES
			r.TRESUsageInAve, err = parseTRES(&t, b, nil)
			return err
		}})
	addField(Field{Name: "ReqTRES", Category: CatScheduling, Doc: "requested trackable resources",
		Append: func(dst []byte, r *Record) []byte { return r.TRESReq.Append(dst) },
		SetBytes: func(r *Record, b []byte) (err error) {
			var t TRES
			r.TRESReq, err = parseTRES(&t, b, nil)
			return err
		}})

	// --- Special Indicators ---
	addField(Field{Name: "Backfill", Category: CatSpecial,
		Doc: "1 when the backfill scheduler started the job (derived from Flags)",
		Get: func(r *Record) string {
			if r.Backfilled() {
				return "1"
			}
			return "0"
		},
		SetBytes: func(r *Record, b []byte) error {
			switch string(bytes.TrimSpace(b)) { // no alloc: switch on []byte conversion
			case "1", "true":
				if !r.Backfilled() {
					r.Flags = append(r.Flags, FlagBackfill)
				}
			case "0", "false", "":
			default:
				return fmt.Errorf("slurm: bad Backfill value %q", b)
			}
			return nil
		}})
	g, s = strField(func(r *Record) string { return r.Dependency }, func(r *Record, v string) { r.Dependency = v })
	addField(Field{Name: "Dependency", Category: CatSpecial, Doc: "job dependency expression", Get: g, Set: s})
	gi, sbi = intField(func(r *Record) int64 { return r.ArrayJobID }, func(r *Record, v int64) { r.ArrayJobID = v })
	addField(Field{Name: "ArrayJobID", Category: CatSpecial, Doc: "parent array job id (0 when none)", Append: gi, SetBytes: sbi})

	// --- Misc ---
	g, s = strField(func(r *Record) string { return r.Comment }, func(r *Record, v string) { r.Comment = v })
	addField(Field{Name: "Comment", Category: CatMisc, Doc: "user comment", Get: g, Set: s})
	g, s = strField(func(r *Record) string { return r.SystemComment }, func(r *Record, v string) { r.SystemComment = v })
	addField(Field{Name: "SystemComment", Category: CatMisc, Doc: "system comment", Get: g, Set: s})
	g, s = strField(func(r *Record) string { return r.AdminComment }, func(r *Record, v string) { r.AdminComment = v })
	addField(Field{Name: "AdminComment", Category: CatMisc, Doc: "administrator comment", Get: g, Set: s})
}

// timeRef and durRef give the generic field adders addressable views of
// Record members without one hand-written closure pair per field.
type (
	timeRef time.Time
	durRef  time.Duration
)

func addTimestamp(name string, cat Category, doc string, ref func(*Record) *timeRef) {
	addField(Field{Name: name, Category: cat, Doc: doc,
		Append: func(dst []byte, r *Record) []byte { return AppendTime(dst, time.Time(*ref(r))) },
		SetBytes: func(r *Record, b []byte) error {
			t, err := ParseTimeBytes(b)
			if err != nil {
				return err
			}
			*ref(r) = timeRef(t)
			return nil
		}})
}

func addDuration(name string, cat Category, doc string, ref func(*Record) *durRef) {
	addField(Field{Name: name, Category: cat, Doc: doc,
		Append: func(dst []byte, r *Record) []byte { return AppendDuration(dst, time.Duration(*ref(r))) },
		SetBytes: func(r *Record, b []byte) error {
			d, err := ParseDurationBytes(b)
			if err != nil {
				return err
			}
			*ref(r) = durRef(d)
			return nil
		}})
}

func addBytes(name string, cat Category, doc string, ref func(*Record) *int64) {
	addField(Field{Name: name, Category: cat, Doc: doc,
		Append: func(dst []byte, r *Record) []byte { return appendSize(dst, *ref(r)) },
		SetBytes: func(r *Record, b []byte) error {
			v, _, err := ParseMemoryBytes(b)
			if err != nil {
				return err
			}
			*ref(r) = v
			return nil
		}})
}

// FieldByName looks up a field case-insensitively.
func FieldByName(name string) (Field, bool) {
	f := lookupField(name)
	if f == nil {
		return Field{}, false
	}
	return *f, true
}

// FieldIndex returns the catalogue position of the field FieldByName
// resolves name to: its place in SelectedNames. The exact canonical
// spelling — what every internal caller passes — is tried first, so only
// a foreign spelling pays for the lower-cased copy.
func FieldIndex(name string) (int, bool) {
	if i, ok := fieldIndex[name]; ok {
		return i, true
	}
	i, ok := fieldIndex[strings.ToLower(strings.TrimSpace(name))]
	return i, ok
}

// lookupField resolves name to its catalogue entry, or nil.
func lookupField(name string) *Field {
	if i, ok := FieldIndex(name); ok {
		return &catalogue[i]
	}
	return nil
}

// SelectedNames returns the names of the curated field selection in order.
func SelectedNames() []string {
	out := make([]string, len(catalogue))
	for i := range catalogue {
		out[i] = catalogue[i].Name
	}
	return out
}

// excludedFields lists the remainder of the sacct field universe — columns
// the study dropped as redundant (raw duplicates of formatted fields),
// sensitive, or uninformative. Together with the catalogue they form the
// 118-column universe Table 1 selects from.
var excludedFields = []string{
	"AllocCPUS", "AllocNodes", "AllocTRES", "AssocID", "AveCPUFreq",
	"AveVMSize", "BlockID", "Container", "CPUTime", "CPUTimeRAW",
	"DBIndex", "ElapsedRaw", "Extra", "FailedNode", "GID",
	"JobIDRaw", "StdOut", "MaxDiskReadNode", "MaxDiskReadTask", "MaxDiskWriteNode",
	"MaxDiskWriteTask", "MaxPages", "MaxPagesNode", "MaxPagesTask", "MaxRSSNode",
	"MaxRSSTask", "MaxVMSizeNode", "MaxVMSizeTask", "McsLabel", "MinCPU",
	"MinCPUNode", "MinCPUTask", "Planned", "PlannedCPU", "PlannedCPURAW",
	"QOSRAW", "ReqCPUFreq", "ReqCPUFreqGov", "ReqCPUFreqMax", "ReqCPUFreqMin",
	"Reserved", "ResvCPU", "ResvCPURAW", "SubmitLine", "TimelimitRaw",
	"TRESUsageInMax", "TRESUsageInMaxNode", "TRESUsageInMaxTask", "TRESUsageInMin", "TRESUsageInMinNode",
	"TRESUsageInMinTask", "TRESUsageInTot", "TRESUsageOutAve", "TRESUsageOutMax", "TRESUsageOutTot",
	"WCKey", "WCKeyID", "ConsumedEnergyRaw",
}

// AllFieldNames returns the full accounting column universe: the curated
// selection plus the excluded remainder.
func AllFieldNames() []string {
	out := make([]string, 0, len(catalogue)+len(excludedFields))
	out = append(out, SelectedNames()...)
	out = append(out, excludedFields...)
	return out
}
