package sched

// The golden Frontier workload, for the external test package: it may
// import internal/sacct, which this package's own tests cannot.
var (
	GoldenFrontierTrace  = goldenFrontierTrace
	GoldenFrontierConfig = goldenFrontierConfig
	GoldenFrontierSim    = goldenFrontierSim
)

// RaceEnabled reports a -race build, whose allocator pads what it hands out.
const RaceEnabled = raceEnabled
