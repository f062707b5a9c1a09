package main

import (
	"os"
	"path/filepath"
	"slices"
	"time"

	"slurmsight/internal/cluster"
	"slurmsight/internal/obs"
	"slurmsight/internal/sacct"
	"slurmsight/internal/sched"
	"slurmsight/internal/tracegen"
)

// fixture is one generated trace on disk, built the way cmd/tracegen
// builds one: tracegen.Generate → sched.New(default).Run(EmitSteps) →
// sacct.Store.Ingest → DumpBinaryFile.
type fixture struct {
	name      string
	path      string // binary colstore
	system    *cluster.System
	requests  []tracegen.Request
	rows      int // job + step records in the store
	fileBytes int64
	users     []string // distinct submitting users, sorted
	end       time.Time

	generateTime, dumpTime time.Duration // the two setup costs the layer probe reports
}

// traceSeed pins the workload generator for both fixtures: the trace is
// the dataset, the same for every run, and the run's seed draws what is
// done with it — the simulator's own RNG (every usage column of every
// record), the read mix, the append stream. A trace per seed would put
// the seed's luck into every metric: over 300 seeds flow6m's size ran
// from 12,845 to 15,945 submissions, and three seeds of the contended
// trace cost the same policy field 1.1, 1.5 and 3.6 s (README,
// "Fixtures").
const traceSeed = 1

type fixtureSpec struct {
	name       string
	start, end time.Time
	jobsPerDay float64 // 0 keeps the profile's
	users      int     // 0 keeps the profile's
	simSeed    int64
}

func (sz *sizes) flowSpec(seed int64) fixtureSpec {
	return fixtureSpec{
		name: "flow6m", start: sz.flowStart, end: sz.flowEnd,
		jobsPerDay: sz.flowJobsPerDay, users: sz.flowUsers, simSeed: seed,
	}
}

func (sz *sizes) contendedSpec(seed int64) fixtureSpec {
	return fixtureSpec{
		name: "contended3d", start: sz.contendedStart,
		end:        sz.contendedStart.AddDate(0, 0, sz.contendedDays),
		jobsPerDay: sz.contendedJobsPerDay, simSeed: seed,
	}
}

// buildFixture generates, simulates, ingests and dumps one trace into
// dir. Spans go to tr (nil when untraced) under parent.
func buildFixture(spec fixtureSpec, dir string, parent *obs.Span) (*fixture, error) {
	sp := parent.Child("setup.fixture")
	sp.SetAttr("fixture", spec.name)
	defer sp.End()

	profile := tracegen.FrontierProfile()
	if spec.jobsPerDay > 0 {
		profile.JobsPerDay = spec.jobsPerDay
	}
	if spec.users > 0 {
		profile.Users = spec.users
	}
	fx := &fixture{
		name:   spec.name,
		path:   filepath.Join(dir, spec.name+".colstore"),
		system: cluster.Frontier(),
		end:    spec.end,
	}

	t0 := time.Now()
	s := sp.Child("tracegen.generate")
	reqs, err := tracegen.Generate([]tracegen.Phase{{Profile: profile, Start: spec.start, End: spec.end}}, traceSeed)
	s.End()
	if err != nil {
		return nil, err
	}
	fx.generateTime = time.Since(t0)
	fx.requests = reqs
	seen := map[string]bool{}
	for i := range reqs {
		if !seen[reqs[i].User] {
			seen[reqs[i].User] = true
			fx.users = append(fx.users, reqs[i].User)
		}
	}
	slices.Sort(fx.users)

	cfg := sched.DefaultConfig(fx.system)
	cfg.Seed = spec.simSeed
	sim, err := sched.New(cfg)
	if err != nil {
		return nil, err
	}
	s = sp.Child("sched.run")
	res, err := sim.Run(reqs, sched.Options{EmitSteps: true})
	s.End()
	if err != nil {
		return nil, err
	}

	s = sp.Child("sacct.ingest")
	store := sacct.NewStore()
	if err := store.Ingest(res); err != nil {
		s.End()
		return nil, err
	}
	store.Finalize()
	s.End()
	fx.rows = store.Len()

	t0 = time.Now()
	s = sp.Child("colstore.dump")
	err = store.DumpBinaryFile(fx.path)
	s.End()
	if err != nil {
		return nil, err
	}
	fx.dumpTime = time.Since(t0)
	st, err := os.Stat(fx.path)
	if err != nil {
		return nil, err
	}
	fx.fileBytes = st.Size()
	return fx, nil
}
