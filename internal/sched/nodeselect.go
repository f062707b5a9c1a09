package sched

import (
	"fmt"
	"slices"

	"slurmsight/internal/cluster"
)

// NodeSelector adds a placement constraint on top of the core-pool
// capacity check: the pool says how many cores are free, the selector says
// whether they are arranged so the job can actually be placed. The default
// "pool" selector has no state and accepts anything the pool accepts —
// the pre-refactor fragmentation-free model, pinned bit-exact by the
// golden tests. The tracking selectors ("firstfit", "bestfit") maintain
// per-node occupancy so sub-node jobs fragment nodes and whole-node jobs
// need fully-free nodes — the fidelity axis the tournament can race.
//
// Reservation-pool placements bypass the selector (carved capacity is not
// node-resolved), so tracking selectors compose with advance reservations
// only approximately; traces without reservations are modelled exactly.
type NodeSelector interface {
	// Fits reports whether the job can be placed now. The pool capacity
	// check (j.cores <= freeCores) is separate and always applies.
	Fits(j *job) bool
	// Place records the placement chosen for j; it must only be called
	// after Fits reported true at the same instant.
	Place(j *job)
	// Release returns j's placement. Safe when j was never placed.
	Release(j *job)
	// Reset binds the selector to a system and clears all occupancy.
	Reset(sys *cluster.System)
}

// SelectorByName resolves a node selector: "pool" (the default),
// "firstfit", or "bestfit".
func SelectorByName(name string) (NodeSelector, error) {
	switch name {
	case "", "pool":
		return poolSelector{}, nil
	case "firstfit":
		return &trackingSelector{}, nil
	case "bestfit":
		return &trackingSelector{bestfit: true}, nil
	}
	return nil, fmt.Errorf("sched: unknown node selector %q", name)
}

// poolSelector is the stateless scalar-pool model: any core arrangement
// works, so placement never fails beyond the pool capacity check.
type poolSelector struct{}

func (poolSelector) Fits(*job) bool        { return true }
func (poolSelector) Place(*job)            {}
func (poolSelector) Release(*job)          {}
func (poolSelector) Reset(*cluster.System) {}

// trackingSelector models per-node occupancy. Whole-node jobs need their
// node count in fully-free nodes; sub-node jobs (node sharing) pack onto a
// single node with enough free cores — firstfit takes the lowest-index
// node with room, bestfit the fullest node that still fits (minimising
// fragmentation). Free whole nodes are counted incrementally so Fits is
// O(1) for whole-node jobs and O(nodes) only for sub-node placement. The
// nodes each job holds live here, not on the job, so the pool selector's
// runs pay nothing for them.
type trackingSelector struct {
	bestfit      bool
	coresPerNode int
	used         []int32   // cores in use per node
	freeNodes    int       // nodes with used == 0
	held         [][]int32 // held[seq]: the nodes job seq was placed on
}

func (t *trackingSelector) Reset(sys *cluster.System) {
	t.coresPerNode = sys.CoresPerNode
	t.used = make([]int32, sys.Nodes)
	t.freeNodes = sys.Nodes
	t.held = nil
}

// subNode reports whether j is a sub-node (shared) allocation.
func (t *trackingSelector) subNode(j *job) bool { return int(j.cores) < t.coresPerNode }

// nodesOf returns the nodes j holds, empty when it holds none.
func (t *trackingSelector) nodesOf(j *job) []int32 {
	if j.seq < int64(len(t.held)) {
		return t.held[j.seq]
	}
	return nil
}

func (t *trackingSelector) Fits(j *job) bool {
	if !t.subNode(j) {
		return int(j.cores)/t.coresPerNode <= t.freeNodes
	}
	return t.pick(int(j.cores)) >= 0
}

// pick chooses the node for a sub-node allocation of c cores, or -1.
func (t *trackingSelector) pick(c int) int {
	need := int32(c)
	cap := int32(t.coresPerNode)
	best := -1
	var bestUsed int32 = -1
	for i, u := range t.used {
		if u+need > cap {
			continue
		}
		if !t.bestfit {
			return i
		}
		if u > bestUsed {
			best, bestUsed = i, u
		}
	}
	return best
}

func (t *trackingSelector) Place(j *job) {
	if n := int(j.seq) + 1; n > len(t.held) {
		t.held = slices.Grow(t.held, n-len(t.held))[:n]
	}
	nodes := t.held[j.seq][:0]
	if t.subNode(j) {
		n := t.pick(int(j.cores))
		if n < 0 {
			return // Fits contract violated; degrade to pool semantics
		}
		if t.used[n] == 0 {
			t.freeNodes--
		}
		t.used[n] += j.cores
		t.held[j.seq] = append(nodes, int32(n))
		return
	}
	need := int(j.cores) / t.coresPerNode
	for i := range t.used {
		if need == 0 {
			break
		}
		if t.used[i] == 0 {
			t.used[i] = int32(t.coresPerNode)
			t.freeNodes--
			nodes = append(nodes, int32(i))
			need--
		}
	}
	t.held[j.seq] = nodes
}

func (t *trackingSelector) Release(j *job) {
	nodes := t.nodesOf(j)
	if len(nodes) == 0 {
		return
	}
	if t.subNode(j) {
		n := nodes[0]
		t.used[n] -= j.cores
		if t.used[n] == 0 {
			t.freeNodes++
		}
	} else {
		for _, n := range nodes {
			t.used[n] = 0
			t.freeNodes++
		}
	}
	t.held[j.seq] = nodes[:0]
}
