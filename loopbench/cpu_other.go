//go:build !unix

package main

import "time"

// processCPU has no portable source off unix; cpu_ms_per_op reads 0 there.
func processCPU() time.Duration { return 0 }
