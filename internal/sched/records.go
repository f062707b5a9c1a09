package sched

import (
	"fmt"
	"iter"
	"math/rand"
	"time"

	"slurmsight/internal/slurm"
	"slurmsight/internal/tracegen"
)

// Outcome is the scheduler's verdict on one job, read straight off the
// finished run: what a scorecard or a property check needs of it, without
// the accounting record around it.
type Outcome struct {
	Req        *tracegen.Request // the submission, in the slice Run was given
	Cores      int               // allocated cores, the scheduling unit
	Eligible   time.Time
	Start, End time.Time // Start is zero unless Started
	State      slurm.State
	Started    bool
	Backfilled bool
	Steps      int // planned step rows: numbered + batch + extern, 0 if never started
}

// Release gives the run's job arena back for a later Run to reuse. The
// jobs go with it: Stats stays readable, and every other read of the
// Result panics. A caller that keeps its Result never calls it; a second
// Release does nothing.
func (r *Result) Release() {
	pa := r.arena
	if pa == nil {
		return
	}
	r.arena, r.jobs = nil, nil
	clear((*pa)[:cap(*pa)]) // the pool keeps no request alive
	arenas.Put(pa)
}

// live returns the jobs, or panics once the Result is released: a read
// after Release is a caller's bug, never an empty run.
func (r *Result) live() []job {
	if r.arena == nil {
		panic("sched: Result read after Release")
	}
	return r.jobs
}

// Len is the number of jobs: one per request.
func (r *Result) Len() int { return len(r.live()) }

// StepRows is the number of step rows Records yields: every job's planned
// steps under Options.EmitSteps, else none.
func (r *Result) StepRows() (n int) {
	jobs := r.live()
	if !r.emitSteps {
		return 0
	}
	for i := range jobs {
		n += plannedSteps(&jobs[i])
	}
	return n
}

// Outcomes yields every job's outcome in submission order.
func (r *Result) Outcomes(yield func(Outcome) bool) {
	jobs := r.live()
	for i := range jobs {
		j := &jobs[i]
		o := Outcome{Req: j.req, Cores: int(j.cores), Eligible: j.at(j.eligible), End: j.at(j.end),
			State: j.State(), Started: j.started, Steps: plannedSteps(j)}
		if j.started {
			o.Start, o.Backfilled = j.at(j.start), j.backfill
		}
		if !yield(o) {
			return
		}
	}
}

// Records streams the accounting rows in submission order, the same bytes
// on every call: each job's row, then its step rows under
// Options.EmitSteps. The *Record is scratch the next yield overwrites —
// copy the struct to keep a row; its TRES maps and Flags are the row's own.
// It is JobRecords over every job.
func (r *Result) Records(yield func(*slurm.Record) bool) {
	r.JobRecords(0, len(r.live()))(yield)
}

// JobRecords streams the rows of jobs [lo, hi) in submission order, as
// Records does: the stream of every job is the streams of any split of
// them, concatenated. Each job reseeds the generator its rows draw from,
// so a range needs nothing of the jobs before it, and ranges may stream
// at once, each on its own goroutine.
func (r *Result) JobRecords(lo, hi int) iter.Seq[*slurm.Record] {
	return func(yield func(*slurm.Record) bool) {
		jobs := r.live()
		// One generator, reseeded for each job that draws — one that never
		// started and did not fail reads nothing: the stream a fresh
		// rand.NewSource per job would give. Its lazySource makes the reseed
		// O(1) and computes only the state words the job's ~100 draws read,
		// where math/rand's Seed fills all 607 (9 µs).
		rng := rand.New(&lazySource{})
		var rec slurm.Record
		var steps []slurm.Record
		for i := lo; i < hi; i++ {
			j := &jobs[i]
			if j.started || j.State() == slurm.StateFailed {
				rng.Seed(r.seed ^ (j.seq+1)*0x9E3779B9)
			}
			steps = r.materialize(j, &rec, steps[:0], rng)
			if !yield(&rec) {
				return
			}
			for k := range steps {
				if !yield(&steps[k]) {
					return
				}
			}
		}
	}
}

// Collect gathers the record stream into job rows and step rows.
func (r *Result) Collect() (jobs, steps []slurm.Record) {
	jobs = make([]slurm.Record, 0, r.Len())
	steps = make([]slurm.Record, 0, r.StepRows())
	for rec := range r.Records {
		if rec.IsStep() {
			steps = append(steps, *rec)
		} else {
			jobs = append(jobs, *rec)
		}
	}
	return jobs, steps
}

// plannedSteps is the number of step records a job produces: none if it
// never started, else its numbered steps plus batch and extern.
func plannedSteps(j *job) int {
	if !j.started {
		return 0
	}
	return j.req.Steps + 2
}

// exitFor maps a terminal state to a plausible exit:signal pair.
func exitFor(st slurm.State, rng *rand.Rand) (int, int) {
	switch st {
	case slurm.StateFailed:
		return 1 + rng.Intn(127), 0
	case slurm.StateCancelled:
		return 0, 15 // SIGTERM
	case slurm.StateTimeout:
		return 0, 1
	case slurm.StateOutOfMemory:
		return 0, 9 // OOM-killed
	case slurm.StateNodeFail:
		return 0, 0
	default:
		return 0, 0
	}
}

// nodeListFor renders a synthetic contiguous allocation.
func nodeListFor(cluster string, nodes int) string {
	if nodes == 1 {
		return fmt.Sprintf("%s000000", cluster)
	}
	return fmt.Sprintf("%s[%06d-%06d]", cluster, 0, nodes-1)
}

// materialize builds the job's record in *rec and, when the run emits
// steps, appends its step records to steps.
func (res *Result) materialize(j *job, rec *slurm.Record, steps []slurm.Record, rng *rand.Rand) []slurm.Record {
	sys := res.sys
	r := j.req
	nodes := int64(r.Nodes)
	cores := int64(sys.CoresPerNode)
	allocCPUs := int64(j.cores)
	// Sub-node allocations scale per-node resources to their core share.
	reqMem := sys.MemPerNode
	if r.Cores > 0 {
		reqMem = sys.MemPerNode * int64(r.Cores) / cores
	}

	*rec = slurm.Record{
		ID:        j.id(),
		JobName:   r.JobName,
		User:      r.User,
		UID:       10000 + hash32(r.User)%50000,
		Group:     r.Account,
		Account:   r.Account,
		Cluster:   sys.Name,
		Partition: r.Partition,
		Submit:    r.Submit,
		Eligible:  j.at(j.eligible),
		Timelimit: r.Timelimit,
		Restarts:  int64(j.restarts),
		NNodes:    nodes,
		NCPUs:     allocCPUs,
		ReqNodes:  nodes,
		ReqCPUs:   allocCPUs,
		ReqMem:    reqMem,
		State:     j.State(),
		QOS:       r.QOS,
		QOSReq:    r.QOS,
		Priority:  j.priority,
		Comment:   r.Class,
		WorkDir:   "/lustre/orion/" + r.Account + "/scratch/" + r.User,
		TRESReq: slurm.TRES{
			"cpu":  allocCPUs,
			"mem":  nodes * reqMem,
			"node": nodes,
		},
		TRESUsageInAve: slurm.TRES{},
	}
	if sys.GPUsPerNode > 0 {
		rec.TRESReq["gres/gpu"] = nodes * int64(sys.GPUsPerNode)
	}
	if r.ArrayID != 0 {
		rec.ArrayJobID = res.arrayBase[r.ArrayID]
	}
	if j.depPred != nil {
		rec.Dependency = "afterok:" + j.depPred.id().String()
	}
	if r.Reservation != "" {
		rec.Reservation = r.Reservation
		for i := range res.reservations {
			if res.reservations[i].Name == r.Reservation {
				rec.ReservationID = int64(i + 1)
			}
		}
	}
	rec.ExitCode, rec.ExitSignal = exitFor(j.State(), rng)
	rec.DerivedExitCode = slurm.FormatExitCode(rec.ExitCode, rec.ExitSignal)

	if !j.started {
		// Cancelled while pending or held: no start, no usage.
		rec.End = j.at(j.end)
		rec.Reason = "Priority"
		if j.reason != reasonNone {
			rec.Reason = reasonNames[j.reason]
		}
		return steps
	}

	elapsed := time.Duration(j.end - j.start)
	rec.Start = j.at(j.start)
	rec.End = j.at(j.end)
	rec.Elapsed = elapsed
	rec.NodeList = nodeListFor(sys.Name, r.Nodes)
	if j.backfill {
		rec.Flags = []string{slurm.FlagBackfill}
	} else {
		rec.Flags = []string{slurm.FlagMain}
	}
	switch {
	case j.reason != reasonNone:
		rec.Reason = reasonNames[j.reason]
	default:
		if wait, ok := rec.WaitTime(); ok && wait > time.Minute {
			rec.Reason = "Priority"
		} else {
			rec.Reason = "None"
		}
	}
	// Runtime discarded by preemptions shows as suspended time, keeping
	// the record's walltime accounting whole.
	rec.Suspended = j.lost

	// Synthesized usage: CPU efficiency, memory footprint, IO volume and
	// energy, all scaled to allocation and runtime.
	eff := 0.35 + 0.6*rng.Float64()
	totalCPU := time.Duration(float64(elapsed) * float64(allocCPUs) * eff)
	rec.TotalCPU = totalCPU
	rec.UserCPU = time.Duration(float64(totalCPU) * (0.85 + 0.1*rng.Float64()))
	rec.SystemCPU = totalCPU - rec.UserCPU
	memFrac := 0.05 + 0.7*rng.Float64()
	rec.MaxRSS = int64(float64(sys.MemPerNode) * memFrac)
	rec.AveRSS = int64(float64(rec.MaxRSS) * (0.5 + 0.4*rng.Float64()))
	rec.VMSize = rec.MaxRSS + rec.MaxRSS/4
	rec.MaxVMSize = rec.VMSize
	rec.AvePages = rng.Int63n(1 << 16)
	ioScale := float64(elapsed.Seconds()) * float64(nodes)
	rec.MaxDiskRead = int64(ioScale * (1 << 18) * rng.Float64())
	rec.AveDiskRead = int64(float64(rec.MaxDiskRead) * (0.4 + 0.5*rng.Float64()))
	rec.MaxDiskWrite = int64(ioScale * (1 << 17) * rng.Float64())
	rec.AveDiskWrite = int64(float64(rec.MaxDiskWrite) * (0.4 + 0.5*rng.Float64()))
	// ~550 W per node plus GPU draw when busy.
	watts := 550.0 + 75.0*float64(sys.GPUsPerNode)*eff
	rec.ConsumedEnergy = int64(watts * float64(nodes) * elapsed.Seconds())
	rec.TRESUsageInAve = slurm.TRES{
		"cpu": int64(float64(cores) * eff),
		"mem": rec.AveRSS,
	}

	tasksPerNode := int64(1) << uint(rng.Intn(4)) // 1, 2, 4, or 8 tasks/node
	if tasksPerNode > cores {
		tasksPerNode = cores
	}
	rec.NTasks = nodes * tasksPerNode

	if res.emitSteps {
		steps = res.synthesizeSteps(j, rec, tasksPerNode, rng, steps)
	}
	return steps
}

// synthesizeSteps appends the batch/extern pseudo-steps and the numbered
// srun steps, sequential in time, with the failure (if any) landing on the
// final step.
func (res *Result) synthesizeSteps(j *job, jobRec *slurm.Record, tasksPerNode int64, rng *rand.Rand, steps []slurm.Record) []slurm.Record {
	elapsed := jobRec.Elapsed
	n := j.req.Steps

	// Every step but batch spans the allocation and shares the job row's
	// node list; batch runs on the lead node alone.
	mkStep := func(id slurm.JobID, start, end time.Time, nnodes, ntasks int64, st slurm.State, layout, nodeList string) slurm.Record {
		rec := slurm.Record{
			ID:             id,
			JobName:        jobRec.JobName,
			User:           jobRec.User,
			Account:        jobRec.Account,
			Cluster:        jobRec.Cluster,
			Partition:      jobRec.Partition,
			Submit:         jobRec.Submit,
			Eligible:       jobRec.Eligible,
			Start:          start,
			End:            end,
			Elapsed:        end.Sub(start),
			Timelimit:      jobRec.Timelimit,
			NNodes:         nnodes,
			NCPUs:          nnodes * int64(res.sys.CoresPerNode),
			NTasks:         ntasks,
			State:          st,
			QOS:            jobRec.QOS,
			Layout:         layout,
			NodeList:       nodeList,
			WorkDir:        jobRec.WorkDir,
			Comment:        jobRec.Comment,
			TRESReq:        slurm.TRES{},
			TRESUsageInAve: slurm.TRES{},
		}
		rec.ExitCode, rec.ExitSignal = exitFor(st, rng)
		dur := end.Sub(start)
		eff := 0.3 + 0.65*rng.Float64()
		rec.TotalCPU = time.Duration(float64(dur) * float64(rec.NCPUs) * eff)
		if ntasks > 0 {
			rec.AveCPU = rec.TotalCPU / time.Duration(ntasks)
		}
		rec.MaxRSS = int64(float64(jobRec.MaxRSS) * (0.3 + 0.7*rng.Float64()))
		rec.AveRSS = int64(float64(rec.MaxRSS) * 0.8)
		return rec
	}

	// Batch script wraps the whole job on the lead node.
	steps = append(steps, mkStep(jobRec.ID.WithBatch(), jobRec.Start, jobRec.End, 1, 1, j.State(), "", res.leadNode))
	// Extern step spans the allocation.
	externID := jobRec.ID
	externID.Kind = slurm.StepExtern
	steps = append(steps, mkStep(externID, jobRec.Start, jobRec.End, jobRec.NNodes, jobRec.NNodes, slurm.StateCompleted, "cyclic", jobRec.NodeList))

	// Numbered srun steps run back-to-back over ~90% of the walltime.
	weights := make([]float64, n)
	total := 0.0
	for i := range weights {
		weights[i] = 0.2 + rng.Float64()
		total += weights[i]
	}
	span := time.Duration(float64(elapsed) * 0.9)
	cursor := jobRec.Start
	for i := 0; i < n; i++ {
		dur := time.Duration(float64(span) * weights[i] / total)
		if dur < time.Second {
			dur = time.Second
		}
		end := cursor.Add(dur)
		if end.After(jobRec.End) {
			end = jobRec.End
		}
		st := slurm.StateCompleted
		if i == n-1 {
			// The job's fate shows on its final step.
			switch j.State() {
			case slurm.StateFailed, slurm.StateOutOfMemory, slurm.StateNodeFail:
				st = j.State()
			case slurm.StateTimeout, slurm.StateCancelled:
				st = slurm.StateCancelled
			}
		}
		steps = append(steps, mkStep(jobRec.ID.WithStep(int64(i)), cursor, end,
			jobRec.NNodes, jobRec.NNodes*tasksPerNode, st, "block", jobRec.NodeList))
		cursor = end
	}
	return steps
}

// hash32 is a tiny FNV-1a for stable synthetic UIDs.
func hash32(s string) int64 {
	var h uint32 = 2166136261
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return int64(h)
}
