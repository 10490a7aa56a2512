package main

import (
	"fmt"
	"path/filepath"
	"testing"
	"time"
)

func TestTailRuleNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct{ perMille, want int }{{990, 1000}, {900, 100}, {500, 20}} {
		if got := minSamples(c.perMille); got != c.want {
			t.Errorf("minSamples(%d) = %d, want %d", c.perMille, got, c.want)
		}
	}
	seq := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(n - i) // reversed: percentile must sort
		}
		return s
	}
	if _, err := percentile(seq(999), 990); err == nil {
		t.Error("p99 of 999 samples (9 beyond) was reported")
	}
	v, err := percentile(seq(1000), 990)
	if err != nil || v != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990 with 10 samples beyond", v, err)
	}
	if v, err := percentile(seq(10), 500); err != nil || v != 5 {
		t.Errorf("p50 of 1..10 = %v, %v; want 5 (a median needs no tail)", v, err)
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	ms := time.Millisecond
	for _, c := range []struct {
		name     string
		children [][2]time.Duration
		want     time.Duration
	}{
		{"no children", nil, 100 * ms},
		{"disjoint", [][2]time.Duration{{10 * ms, 20 * ms}, {50 * ms, 80 * ms}}, 60 * ms},
		{"overlapping count once", [][2]time.Duration{{10 * ms, 40 * ms}, {30 * ms, 60 * ms}}, 50 * ms},
		{"nested", [][2]time.Duration{{10 * ms, 90 * ms}, {20 * ms, 30 * ms}}, 20 * ms},
		{"clipped to the span", [][2]time.Duration{{-10 * ms, 10 * ms}, {90 * ms, 120 * ms}}, 80 * ms},
		{"outside", [][2]time.Duration{{200 * ms, 300 * ms}}, 100 * ms},
	} {
		if got := selfTime(0, 100*ms, c.children); got != c.want {
			t.Errorf("%s: self time %v, want %v", c.name, got, c.want)
		}
	}
}

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const stall = 60 * time.Millisecond
	due := make([]time.Duration, 10)
	for i := range due {
		due[i] = time.Duration(i) * 2 * time.Millisecond
	}
	// One sender; the first request stalls. Requests due during the stall
	// wait for the sender, and that wait is their latency, although each
	// one's own service time is near zero.
	recs, backlog := openLoop(time.Now(), due, 1, func(i int) time.Time {
		if i == 0 {
			time.Sleep(stall)
		}
		return time.Now()
	})
	for i, r := range recs[1:] {
		if min := stall - due[i+1]; r.latency() < min {
			t.Errorf("request %d: latency %v from due, want >= %v", i+1, r.latency(), min)
		}
		if service := r.Done - r.Sent; service > stall/2 {
			t.Errorf("request %d: service time %v, want near zero", i+1, service)
		}
	}
	if backlog < 5 {
		t.Errorf("backlog max %d, want the requests due during the stall (>= 5)", backlog)
	}

	// A generator that starts late makes every request late, and the
	// lateness counts in latency too.
	const late = 40 * time.Millisecond
	recs, _ = openLoop(time.Now().Add(-late), due[:3], 2, func(int) time.Time { return time.Now() })
	for i, r := range recs {
		if r.Dispatched-r.Due < late-due[i] || r.latency() < late-due[i] {
			t.Errorf("request %d: lateness %v, latency %v; want both >= %v", i, r.Dispatched-r.Due, r.latency(), late-due[i])
		}
	}
}

// synthetic builds n result lines around base values, with a little
// run-to-run spread, slowed by factor and with failed ops per run.
func synthetic(n int, factor float64, failed int) []result {
	var rs []result
	for i := 0; i < n; i++ {
		jitter := 1 + 0.01*float64(i%3-1)
		rs = append(rs, result{Correct: failed == 0, Attempted: 1000, Failed: failed, Metrics: map[string]metric{
			"setup_s":       {0.005 * jitter * factor, "s"},
			"op_ms_p50":     {5.4 * jitter * factor, "ms"},
			"cpu_ms_per_op": {8.1 * jitter * factor, "ms"},

			"good_ratio":  {1 - float64(failed)/1000, "ratio"},
			"rss_peak_mb": {15 * jitter, "MB"},
		}})
	}
	return rs
}

func TestRegressionsFlagPlantedChanges(t *testing.T) {
	bf, err := loadBenchFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	parent := synthetic(10, 1, 0)
	if flags := regressions(bf.EndToEnd, parent, synthetic(10, 1, 0)); len(flags) != 0 {
		t.Errorf("identical runs flagged: %v", flags)
	}
	slow := regressions(bf.EndToEnd, parent, synthetic(10, 2, 0))
	for _, name := range []string{"setup_s", "op_ms_p50", "cpu_ms_per_op"} {
		if !contains(slow, name) {
			t.Errorf("2x slower runs: %s not flagged in %v", name, slow)
		}
	}
	failing := regressions(bf.EndToEnd, parent, synthetic(10, 1, 100))
	if !contains(failing, "failures") || !contains(failing, "good_ratio") {
		t.Errorf("runs with failures not flagged: %v", failing)
	}
}

func contains(flags []string, prefix string) bool {
	for _, f := range flags {
		if len(f) >= len(prefix) && f[:len(prefix)] == prefix {
			return true
		}
	}
	return false
}

func TestBenchmarkFileDeclaresReportedMetrics(t *testing.T) {
	bf, err := loadBenchFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := checkDecls(bf.EndToEnd, false); err != nil {
		t.Error(err)
	}
	if err := checkDecls(bf.PerLayer, true); err != nil {
		t.Error(err)
	}
	for _, w := range bf.Workloads {
		p := parseParams(w.Why)
		if p["slo_ms"] <= 0 {
			t.Errorf("workload %s: no slo_ms in %q", w.Name, w.Why)
		}
		if w.Name == "daemon" && p["rate_rps"] < 10 {
			t.Errorf("daemon: no rate_rps in %q", w.Why)
		}
	}
	if got := fmt.Sprint(bf.workloadNames()); got != "[paper design daemon]" {
		t.Errorf("workloads %s, want [paper design daemon]", got)
	}
}
