package sched

import "fmt"

// weightPreset is a named multifactor weight composition: the policy
// vocabulary the tournament and the LLM evolution loop mutate.
type weightPreset struct {
	Priority        string // priority policy name ("" = multifactor)
	Base            int64
	AgeWeight       int64
	SizeWeight      int64
	FairShareWeight int64
}

// presets is the named weight vocabulary. "default" matches DefaultConfig
// exactly so applying it is a no-op on a default configuration.
var presets = map[string]weightPreset{
	// Production mix: size rewarded, age and fair share balanced.
	"default": {
		Base:            100_000,
		AgeWeight:       300_000,
		SizeWeight:      400_000,
		FairShareWeight: 200_000,
	},
	// Size-dominant capability scheduling: big jobs jump the queue.
	"capability": {
		Base:            100_000,
		AgeWeight:       150_000,
		SizeWeight:      900_000,
		FairShareWeight: 100_000,
	},
	// Age-dominant: waiting time dominates, size barely counts.
	"aging": {
		Base:            100_000,
		AgeWeight:       900_000,
		SizeWeight:      50_000,
		FairShareWeight: 150_000,
	},
	// Fair-share-dominant: heavy users sink, light users rise.
	"fairshare": {
		Base:            100_000,
		AgeWeight:       200_000,
		SizeWeight:      50_000,
		FairShareWeight: 800_000,
	},
	// First-come-first-served baseline: submission order only.
	"fifo": {Priority: "fifo"},
}

// ApplyPreset overwrites cfg's priority weights with the named preset,
// leaving every other knob (backfill, sharing, reservations, the age cap
// and the fair-share half-life) untouched.
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
	return nil
}
