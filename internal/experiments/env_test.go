package experiments

import (
	"testing"

	"greengpu/internal/telemetry"
)

// TestFig1ServedByClosedForm pins the suite's single evaluator: Fig. 1's
// fixed-frequency points are baseline runs, so with no cache attached
// every one of them must be served by the sweep engine's closed form, and
// none may start a full simulation.
func TestFig1ServedByClosedForm(t *testing.T) {
	telemetry.Enable()
	defer telemetry.Disable()
	e := mustEnv()
	e.Jobs = 1
	const coreRuns = "greengpu_core_runs_total"
	fastBefore := telemetry.Default.CounterValue(telemetry.MetricSweepFastPath)
	fallBefore := telemetry.Default.CounterValue(telemetry.MetricSweepFallback)
	runsBefore := telemetry.Default.CounterValue(coreRuns)
	res, err := e.Fig1()
	if err != nil {
		t.Fatal(err)
	}
	if fast := telemetry.Default.CounterValue(telemetry.MetricSweepFastPath) - fastBefore; fast != uint64(len(res.Points)) {
		t.Errorf("closed form served %d points, want all %d Fig. 1 points", fast, len(res.Points))
	}
	if fall := telemetry.Default.CounterValue(telemetry.MetricSweepFallback) - fallBefore; fall != 0 {
		t.Errorf("%d Fig. 1 points fell back to a full simulation", fall)
	}
	if runs := telemetry.Default.CounterValue(coreRuns) - runsBefore; runs != 0 {
		t.Errorf("Fig. 1 started %d core.Run simulations, want 0", runs)
	}
}
