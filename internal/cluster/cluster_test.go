package cluster

import (
	"testing"
	"time"
)

func TestBuiltinsValid(t *testing.T) {
	for _, s := range []*System{Frontier(), Andes()} {
		if err := s.Validate(); err != nil {
			t.Errorf("%s invalid: %v", s.Name, err)
		}
	}
}

func TestFrontierVsAndesShape(t *testing.T) {
	f, a := Frontier(), Andes()
	if f.Nodes <= a.Nodes {
		t.Error("Frontier should dwarf Andes in node count")
	}
	if f.GPUsPerNode == 0 || a.GPUsPerNode != 0 {
		t.Error("Frontier is the GPU system; Andes is CPU-centric")
	}
	if f.TotalCores() != int64(9408*64) {
		t.Errorf("Frontier cores = %d", f.TotalCores())
	}
}

func TestDefaultPartition(t *testing.T) {
	f := Frontier()
	if p := f.DefaultPartition(); p.Name != "batch" {
		t.Errorf("default partition = %s", p.Name)
	}
	if _, ok := f.PartitionByName("extended"); !ok {
		t.Error("extended partition missing")
	}
	if _, ok := f.PartitionByName("nope"); ok {
		t.Error("PartitionByName(nope) should fail")
	}
}

func TestQOSLookup(t *testing.T) {
	f := Frontier()
	q, ok := f.QOSByName("debug")
	if !ok || q.PriorityWeight == 0 {
		t.Errorf("debug QoS = %+v, %v", q, ok)
	}
	if _, ok := f.QOSByName("gold"); ok {
		t.Error("QOSByName(gold) should fail")
	}
}

func TestCapabilityWallBins(t *testing.T) {
	f := Frontier()
	batch := f.DefaultPartition()
	small := f.MaxWallForNodes(batch, 8)
	mid := f.MaxWallForNodes(batch, 500)
	big := f.MaxWallForNodes(batch, 8000)
	if !(small < mid && mid < big) {
		t.Errorf("capability policy not monotone: %v %v %v", small, mid, big)
	}
	if big != 24*time.Hour {
		t.Errorf("hero bin = %v", big)
	}
	// Andes has no bins: uniform ceiling.
	a := Andes()
	ab := a.DefaultPartition()
	if a.MaxWallForNodes(ab, 1) != a.MaxWallForNodes(ab, 300) {
		t.Error("Andes should have a uniform walltime ceiling")
	}
}

func TestValidateRejections(t *testing.T) {
	base := func() *System {
		return &System{
			Name: "x", Nodes: 10, CoresPerNode: 4,
			Partitions: []Partition{{Name: "p", Nodes: 10, MaxWall: time.Hour, Default: true}},
		}
	}
	if err := base().Validate(); err != nil {
		t.Fatalf("base should validate: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*System)
	}{
		{"empty name", func(s *System) { s.Name = "" }},
		{"zero nodes", func(s *System) { s.Nodes = 0 }},
		{"no partitions", func(s *System) { s.Partitions = nil }},
		{"oversize partition", func(s *System) { s.Partitions[0].Nodes = 99 }},
		{"no walltime", func(s *System) { s.Partitions[0].MaxWall = 0 }},
		{"no default", func(s *System) { s.Partitions[0].Default = false }},
		{"maxnodes overflow", func(s *System) { s.Partitions[0].MaxNodes = 20 }},
		{"wallbins unordered", func(s *System) {
			s.WallBins = []WallBin{{MinNodes: 1, MaxWall: time.Hour}, {MinNodes: 5, MaxWall: time.Hour}}
		}},
	}
	for _, c := range cases {
		s := base()
		c.mut(s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: want validation error", c.name)
		}
	}
}

func TestMaxNodesDefaulting(t *testing.T) {
	s := &System{
		Name: "x", Nodes: 10, CoresPerNode: 4,
		Partitions: []Partition{{Name: "p", Nodes: 10, MaxWall: time.Hour, Default: true}},
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.Partitions[0].MaxNodes != 10 {
		t.Errorf("MaxNodes not defaulted: %d", s.Partitions[0].MaxNodes)
	}
}
