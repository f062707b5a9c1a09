package sched_test

import (
	"reflect"
	"testing"

	"slurmsight/internal/sched"
	"slurmsight/internal/sched/schedtest"
)

// TestFrontierFixtureIsTheGoldenRun holds schedtest's golden Frontier run,
// which the store, columnar-format and serving-plane tests replay, to the
// one this package's goldens pin: the same requests under the same
// configuration.
func TestFrontierFixtureIsTheGoldenRun(t *testing.T) {
	if !reflect.DeepEqual(schedtest.FrontierTrace(t), sched.GoldenFrontierTrace(t)) {
		t.Error("schedtest.FrontierTrace differs from the golden Frontier trace")
	}
	if got, want := schedtest.FrontierConfig(), sched.GoldenFrontierConfig(); !reflect.DeepEqual(got, want) {
		t.Errorf("schedtest.FrontierConfig is %+v, the golden run's %+v", got, want)
	}
}
