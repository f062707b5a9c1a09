package sched

import (
	"fmt"
	"sort"
	"time"
)

// WeightPreset is a named multifactor weight composition: the policy
// vocabulary the tournament and the LLM evolution loop mutate. Zero-valued
// duration fields inherit the config they are applied to.
type WeightPreset struct {
	Description     string
	Priority        string // priority policy name ("" = multifactor)
	Base            int64
	AgeWeight       int64
	SizeWeight      int64
	FairShareWeight int64
	AgeMax          time.Duration
	HalfLife        time.Duration
}

// presets is the named weight vocabulary. "default" matches DefaultConfig
// exactly so applying it is a no-op on a default configuration.
var presets = map[string]WeightPreset{
	"default": {
		Description:     "production mix: size rewarded, age and fair share balanced",
		Base:            100_000,
		AgeWeight:       300_000,
		SizeWeight:      400_000,
		FairShareWeight: 200_000,
	},
	"capability": {
		Description:     "size-dominant capability scheduling: big jobs jump the queue",
		Base:            100_000,
		AgeWeight:       150_000,
		SizeWeight:      900_000,
		FairShareWeight: 100_000,
	},
	"aging": {
		Description:     "age-dominant: waiting time dominates, size barely counts",
		Base:            100_000,
		AgeWeight:       900_000,
		SizeWeight:      50_000,
		FairShareWeight: 150_000,
	},
	"fairshare": {
		Description:     "fair-share-dominant: heavy users sink, light users rise",
		Base:            100_000,
		AgeWeight:       200_000,
		SizeWeight:      50_000,
		FairShareWeight: 800_000,
	},
	"fifo": {
		Description: "first-come-first-served baseline: submission order only",
		Priority:    "fifo",
	},
}

// ApplyPreset overwrites cfg's priority weights with the named preset,
// leaving every other knob (backfill, sharing, reservations) untouched.
func ApplyPreset(cfg *Config, name string) error {
	p, ok := presets[name]
	if !ok {
		return fmt.Errorf("sched: unknown weight preset %q", name)
	}
	cfg.Priority = p.Priority
	if p.Priority == "" {
		cfg.Base = p.Base
		cfg.AgeWeight = p.AgeWeight
		cfg.SizeWeight = p.SizeWeight
		cfg.FairShareWeight = p.FairShareWeight
	}
	if p.AgeMax > 0 {
		cfg.AgeMax = p.AgeMax
	}
	if p.HalfLife > 0 {
		cfg.FairShareHalfLife = p.HalfLife
	}
	return nil
}

// PresetNames lists the named weight presets, sorted.
func PresetNames() []string {
	names := make([]string, 0, len(presets))
	for n := range presets {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
