// Package cluster describes the HPC systems the workflow analyses. A
// System captures the architecture and scheduling-policy facts that shape a
// job trace: node counts, per-node resources, partitions, QoS levels, and
// the walltime-by-job-size policy bins leadership systems use.
//
// Two built-in models mirror the paper's evaluation systems: Frontier
// (OLCF's exascale GPU system) and Andes (the CPU-centric general-purpose
// analysis cluster). Absolute configuration values are public knowledge;
// they parameterize the synthetic workload generator and the scheduler
// simulator, standing in for the proprietary accounting databases.
package cluster

import (
	"errors"
	"fmt"
	"time"
)

// QOS is a quality-of-service level jobs can request.
type QOS struct {
	Name           string
	PriorityWeight int64         // added into the multifactor priority
	MaxWall        time.Duration // 0 means the partition limit applies

	// CanPreempt marks a near-real-time/urgent QoS whose jobs may evict
	// preemptible work when they cannot start immediately (the NERSC
	// "realtime" pattern the paper cites).
	CanPreempt bool
	// Preemptible marks opportunistic jobs that urgent work may requeue
	// (the TACC "flex" pattern).
	Preemptible bool
}

// Partition is a scheduling partition.
type Partition struct {
	Name     string
	Nodes    int           // nodes assigned to the partition
	MaxNodes int           // per-job ceiling (0 = partition size)
	MaxWall  time.Duration // per-job walltime ceiling
	Default  bool          // default partition for submissions
}

// WallBin expresses size-dependent walltime policy: jobs allocating at
// least MinNodes may request up to MaxWall.
type WallBin struct {
	MinNodes int
	MaxWall  time.Duration
}

// System is a complete machine model.
type System struct {
	Name         string
	Nodes        int
	CoresPerNode int
	GPUsPerNode  int
	MemPerNode   int64 // bytes
	Partitions   []Partition
	QOSLevels    []QOS
	// WallBins, ordered by descending MinNodes, give larger jobs longer
	// walltime ceilings (leadership "capability" policy). Empty means the
	// partition MaxWall applies uniformly.
	WallBins []WallBin
}

// Validate checks internal consistency.
func (s *System) Validate() error {
	if s.Name == "" {
		return errors.New("cluster: system name required")
	}
	if s.Nodes <= 0 || s.CoresPerNode <= 0 {
		return fmt.Errorf("cluster: %s: node/core counts must be positive", s.Name)
	}
	if len(s.Partitions) == 0 {
		return fmt.Errorf("cluster: %s: at least one partition required", s.Name)
	}
	defaults := 0
	for i := range s.Partitions {
		p := &s.Partitions[i]
		if p.Name == "" {
			return fmt.Errorf("cluster: %s: unnamed partition", s.Name)
		}
		if p.Nodes <= 0 || p.Nodes > s.Nodes {
			return fmt.Errorf("cluster: %s: partition %s has %d nodes of %d", s.Name, p.Name, p.Nodes, s.Nodes)
		}
		if p.MaxNodes == 0 {
			p.MaxNodes = p.Nodes
		}
		if p.MaxNodes > p.Nodes {
			return fmt.Errorf("cluster: %s: partition %s MaxNodes exceeds size", s.Name, p.Name)
		}
		if p.MaxWall <= 0 {
			return fmt.Errorf("cluster: %s: partition %s needs a walltime ceiling", s.Name, p.Name)
		}
		if p.Default {
			defaults++
		}
	}
	if defaults != 1 {
		return fmt.Errorf("cluster: %s: exactly one default partition required, have %d", s.Name, defaults)
	}
	for i := 1; i < len(s.WallBins); i++ {
		if s.WallBins[i].MinNodes >= s.WallBins[i-1].MinNodes {
			return fmt.Errorf("cluster: %s: WallBins must be in descending MinNodes order", s.Name)
		}
	}
	return nil
}

// DefaultPartition returns the submission default.
func (s *System) DefaultPartition() *Partition {
	for i := range s.Partitions {
		if s.Partitions[i].Default {
			return &s.Partitions[i]
		}
	}
	return &s.Partitions[0]
}

// PartitionByName looks up a partition.
func (s *System) PartitionByName(name string) (*Partition, bool) {
	for i := range s.Partitions {
		if s.Partitions[i].Name == name {
			return &s.Partitions[i], true
		}
	}
	return nil, false
}

// QOSByName looks up a QoS level.
func (s *System) QOSByName(name string) (QOS, bool) {
	for _, q := range s.QOSLevels {
		if q.Name == name {
			return q, true
		}
	}
	return QOS{}, false
}

// MaxWallForNodes returns the walltime ceiling for a job of the given size
// in the given partition, applying the capability WallBins when present.
func (s *System) MaxWallForNodes(p *Partition, nodes int) time.Duration {
	for _, b := range s.WallBins {
		if nodes >= b.MinNodes {
			if b.MaxWall < p.MaxWall {
				return b.MaxWall
			}
			return p.MaxWall
		}
	}
	return p.MaxWall
}

// TotalCores returns the system core count.
func (s *System) TotalCores() int64 { return int64(s.Nodes) * int64(s.CoresPerNode) }

// Frontier models OLCF's exascale system: 9,408 nodes, each with one
// 64-core EPYC and 4 MI250X accelerators (8 logical GPUs), batch-oriented
// capability scheduling with size-tiered walltime ceilings.
func Frontier() *System {
	s := &System{
		Name:         "frontier",
		Nodes:        9408,
		CoresPerNode: 64,
		GPUsPerNode:  8,
		MemPerNode:   512 << 30,
		Partitions: []Partition{
			{Name: "batch", Nodes: 9408, MaxWall: 24 * time.Hour, Default: true},
			{Name: "extended", Nodes: 128, MaxNodes: 64, MaxWall: 72 * time.Hour},
		},
		QOSLevels: []QOS{
			{Name: "normal", PriorityWeight: 0},
			{Name: "debug", PriorityWeight: 200_000, MaxWall: 2 * time.Hour},
			{Name: "urgent", PriorityWeight: 500_000, CanPreempt: true},
			{Name: "preemptible", PriorityWeight: -100_000, Preemptible: true},
		},
		// OLCF-style capability bins: the larger the allocation, the
		// longer the permitted walltime.
		WallBins: []WallBin{
			{MinNodes: 5645, MaxWall: 24 * time.Hour},
			{MinNodes: 1882, MaxWall: 12 * time.Hour},
			{MinNodes: 184, MaxWall: 6 * time.Hour},
			{MinNodes: 0, MaxWall: 2 * time.Hour},
		},
	}
	if err := s.Validate(); err != nil {
		panic(err) // built-in models must be internally consistent
	}
	return s
}

// Andes models OLCF's general-purpose analysis cluster: 704 CPU nodes
// (32 cores each), throughput-oriented policy with a uniform walltime
// ceiling and a short-job/interactive emphasis.
func Andes() *System {
	s := &System{
		Name:         "andes",
		Nodes:        704,
		CoresPerNode: 32,
		GPUsPerNode:  0,
		MemPerNode:   256 << 30,
		Partitions: []Partition{
			{Name: "batch", Nodes: 704, MaxNodes: 384, MaxWall: 48 * time.Hour, Default: true},
			{Name: "gpu", Nodes: 9, MaxNodes: 2, MaxWall: 48 * time.Hour},
		},
		QOSLevels: []QOS{
			{Name: "normal", PriorityWeight: 0},
			{Name: "debug", PriorityWeight: 200_000, MaxWall: time.Hour},
		},
	}
	if err := s.Validate(); err != nil {
		panic(err)
	}
	return s
}
