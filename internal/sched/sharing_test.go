package sched

import (
	"testing"
	"time"

	"slurmsight/internal/slurm"
	"slurmsight/internal/tracegen"
)

// coreReq builds a sub-node request: one node, the given core count.
func coreReq(user string, submit time.Time, cores int, limit, runtime time.Duration) tracegen.Request {
	r := req(user, submit, 1, limit, runtime)
	r.Cores = cores
	return r
}

func TestNodeSharingPacksSubNodeJobs(t *testing.T) {
	// Two 4-core jobs on one 8-core node: with sharing they run
	// concurrently even when the rest of the machine is occupied.
	blocker := req("big", t0, 9, 4*time.Hour, 4*time.Hour) // 9 of 10 nodes
	a := coreReq("a", t0.Add(time.Second), 4, time.Hour, 30*time.Minute)
	b := coreReq("b", t0.Add(2*time.Second), 4, time.Hour, 30*time.Minute)
	res := run(t, tinySystem(), []tracegen.Request{blocker, a, b}, func(c *Config) {
		c.EnableNodeSharing = true
	})
	ja, jb := findJob(res, "a"), findJob(res, "b")
	if !ja.Start.Equal(t0.Add(time.Second)) || !jb.Start.Equal(t0.Add(2*time.Second)) {
		t.Errorf("shared jobs did not pack: a=%v b=%v", ja.Start, jb.Start)
	}
	if ja.NCPUs != 4 || ja.NNodes != 1 {
		t.Errorf("sub-node record wrong: %d nodes / %d cpus", ja.NNodes, ja.NCPUs)
	}
}

func TestNodeSharingOffSerializes(t *testing.T) {
	// Same scenario without sharing: each sub-node job occupies a whole
	// node, so the second must wait for the first.
	blocker := req("big", t0, 9, 4*time.Hour, 4*time.Hour)
	a := coreReq("a", t0.Add(time.Second), 4, time.Hour, 30*time.Minute)
	b := coreReq("b", t0.Add(2*time.Second), 4, time.Hour, 30*time.Minute)
	res := run(t, tinySystem(), []tracegen.Request{blocker, a, b}, nil)
	ja, jb := findJob(res, "a"), findJob(res, "b")
	if !ja.Start.Equal(t0.Add(time.Second)) {
		t.Errorf("first sub-node job should take the free node: %v", ja.Start)
	}
	if jb.Start.Before(ja.End) {
		t.Errorf("without sharing the second job ran concurrently: %v < %v", jb.Start, ja.End)
	}
	// Whole-node semantics: the record still shows a full node's CPUs.
	if ja.NCPUs != 8 {
		t.Errorf("rounded-up job NCPUs = %d, want the full node", ja.NCPUs)
	}
}

func TestSubNodeRequestValidation(t *testing.T) {
	cfg := DefaultConfig(tinySystem())
	cfg.EnableNodeSharing = true
	sim, _ := New(cfg)
	multi := req("a", t0, 2, time.Hour, time.Minute)
	multi.Cores = 4
	if _, err := sim.Run([]tracegen.Request{multi}, Options{}); err == nil {
		t.Error("multi-node + cores: want error")
	}
	sim2, _ := New(cfg)
	tooBig := coreReq("a", t0, 99, time.Hour, time.Minute)
	if _, err := sim2.Run([]tracegen.Request{tooBig}, Options{}); err == nil {
		t.Error("cores beyond a node: want error")
	}
}

func TestNodeSharingThroughput(t *testing.T) {
	// 40 quarter-node jobs on the 10-node machine, all submitted at once:
	// sharing runs them in one wave where whole-node placement needs four.
	var reqs []tracegen.Request
	for i := 0; i < 40; i++ {
		reqs = append(reqs, coreReq("u", t0, 2, time.Hour, time.Hour))
	}
	shared := run(t, tinySystem(), reqs, func(c *Config) { c.EnableNodeSharing = true })
	exclusive := run(t, tinySystem(), reqs, nil)
	lastEnd := func(res *rows) time.Time {
		var last time.Time
		for i := range res.Jobs {
			if res.Jobs[i].End.After(last) {
				last = res.Jobs[i].End
			}
		}
		return last
	}
	sharedSpan := lastEnd(shared).Sub(t0)
	exclusiveSpan := lastEnd(exclusive).Sub(t0)
	if sharedSpan != time.Hour {
		t.Errorf("shared makespan = %v, want one wave", sharedSpan)
	}
	if exclusiveSpan != 4*time.Hour {
		t.Errorf("exclusive makespan = %v, want four waves", exclusiveSpan)
	}
	for i := range shared.Jobs {
		if shared.Jobs[i].State != slurm.StateCompleted {
			t.Fatalf("job %d state %v", i, shared.Jobs[i].State)
		}
	}
}

func TestSharingWithMixedWorkload(t *testing.T) {
	// Sub-node and whole-node jobs coexist; capacity accounting holds.
	reqs := []tracegen.Request{
		req("whole", t0, 8, 2*time.Hour, 2*time.Hour),
		coreReq("s1", t0, 8, time.Hour, time.Hour), // a full node's worth
		coreReq("s2", t0, 4, time.Hour, time.Hour), // packs with s3
		coreReq("s3", t0, 4, time.Hour, time.Hour),
	}
	res := run(t, tinySystem(), reqs, func(c *Config) { c.EnableNodeSharing = true })
	// 8 nodes + 8 cores + 4 + 4 = 80 cores exactly: everything starts at t0.
	for _, user := range []string{"whole", "s1", "s2", "s3"} {
		if j := findJob(res, user); !j.Start.Equal(t0) {
			t.Errorf("%s delayed to %v despite exact fit", user, j.Start)
		}
	}
	if res.Stats.Utilization() <= 0 {
		t.Error("utilization not accounted")
	}
}
