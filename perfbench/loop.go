package main

import (
	"fmt"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"

	"greengpu/internal/telemetry"
)

// maxMeasure caps how long a closed loop may run past its measured
// seconds to collect enough samples for the p99 (see minBeyond).
const maxMeasure = 120 * time.Second

// In-process set-ups take microseconds, so a run times setupBatches
// batches of setupBatch set-ups each; setup_s is the median over batches
// of the mean set-up time in a batch.
const (
	setupBatches = 11
	setupBatch   = 100
)

// timeSetup runs batches batches of size set-ups each and returns the
// median over batches of the mean seconds per set-up, and the last
// set-up's result.
func timeSetup[T any](batches, size int, setup func() (T, error)) (float64, T, error) {
	var v T
	var times []float64
	for i := 0; i < batches; i++ {
		t0 := time.Now()
		for j := 0; j < size; j++ {
			var err error
			if v, err = setup(); err != nil {
				return 0, v, err
			}
		}
		times = append(times, time.Since(t0).Seconds()/float64(size))
	}
	return median(times), v, nil
}

// opFunc runs op i and reports whether every output check passed. tr is
// nil for an untraced op.
type opFunc func(i int, tr *tracer) bool

// closedRun is what a closed loop measured.
type closedRun struct {
	// untraced and traced are op times in ms.
	untraced, traced  []float64
	attempted, failed int
	// good counts ops that passed their checks within the latency limit.
	good int
	// goStats are Go runtime deltas over the untraced ops of a traced run.
	goStats goDelta
	// cpuPerOpMS is the process's CPU time per measured op.
	cpuPerOpMS float64
}

// closedLoop runs ops back to back from one caller: a warm-up of a few
// ops, then at least d of measured ops, continuing until there are enough
// untraced ops for a p99 (see minBeyond). In a traced run (tr != nil) odd
// ops are traced, with telemetry on and spans recorded, and even ops run
// untraced, so the two interleave under the same host conditions.
func closedLoop(d time.Duration, tr *tracer, sloMS float64, op opFunc) (closedRun, error) {
	var r closedRun
	const warmup = 3
	for i := 0; i < warmup; i++ {
		t0 := time.Now()
		r.count(op(-1, nil), time.Since(t0), sloMS)
	}
	need := minSamples(990)
	start := time.Now()
	cpu0 := processCPU()
	for i := 0; ; i++ {
		el := time.Since(start)
		if el >= d && len(r.untraced) >= need {
			break
		}
		if el >= d+maxMeasure {
			return r, fmt.Errorf("%d ops in %v: too few for a p99", len(r.untraced), el)
		}
		traced := tr != nil && i%2 == 1
		var before goSample
		if tr != nil && !traced {
			before = readGo()
		}
		if traced {
			telemetry.Enable()
		}
		t0 := time.Now()
		var ok bool
		if traced {
			ok = op(i, tr)
		} else {
			ok = op(i, nil)
		}
		el = time.Since(t0)
		if traced {
			telemetry.Disable()
			r.traced = append(r.traced, ms(el))
		} else {
			r.untraced = append(r.untraced, ms(el))
			if tr != nil {
				r.goStats.add(before, readGo())
			}
		}
		r.count(ok, el, sloMS)
	}
	r.cpuPerOpMS = ms(processCPU()-cpu0) / float64(len(r.untraced)+len(r.traced))
	return r, nil
}

// count tallies one op: every op is attempted, and a good op passed its
// checks within the latency limit.
func (r *closedRun) count(ok bool, el time.Duration, sloMS float64) {
	r.attempted++
	if !ok {
		r.failed++
	} else if ms(el) <= sloMS {
		r.good++
	}
}

// e2e fills the end-to-end metrics of a closed loop.
func (r *closedRun) e2e(m map[string]float64, setup float64, rssMB float64) {
	m["op_ms_p50"] = median(r.untraced)
	m["setup_s"] = setup
	m["cpu_ms_per_op"] = r.cpuPerOpMS
	m["good_ratio"] = float64(r.good) / float64(r.attempted)
	m["rss_peak_mb"] = rssMB
}

// layer fills the per-layer metrics every closed-loop workload shares.
func (r *closedRun) layer(m map[string]float64) error {
	m["trace.overhead_ratio"] = median(r.traced) / median(r.untraced)
	r.goStats.fill(m)
	return tails(r.untraced, m)
}

// goSample is a reading of the Go runtime's allocation and GC counters.
type goSample struct{ allocs, bytes, gcs uint64 }

var goMetrics = []string{"/gc/heap/allocs:objects", "/gc/heap/allocs:bytes", "/gc/cycles/total:gc-cycles"}

func readGo() goSample {
	s := make([]metrics.Sample, len(goMetrics))
	for i, name := range goMetrics {
		s[i].Name = name
	}
	metrics.Read(s)
	return goSample{s[0].Value.Uint64(), s[1].Value.Uint64(), s[2].Value.Uint64()}
}

// goDelta accumulates runtime counter deltas over a number of ops.
type goDelta struct {
	ops int
	d   goSample
}

func (g *goDelta) add(before, after goSample) {
	g.ops++
	g.d.allocs += after.allocs - before.allocs
	g.d.bytes += after.bytes - before.bytes
	g.d.gcs += after.gcs - before.gcs
}

func (g *goDelta) fill(m map[string]float64) {
	if g.ops == 0 {
		return
	}
	n := float64(g.ops)
	m["go.allocs_per_op"] = float64(g.d.allocs) / n
	m["go.alloc_bytes_per_op"] = float64(g.d.bytes) / n
	m["go.gc_cycles"] = float64(g.d.gcs) / n
}

// counterNames maps per-layer metrics to the telemetry counters they are
// read from.
var counterNames = map[string]string{
	"runcache.hits":         telemetry.MetricRunCacheHits,
	"runcache.misses":       telemetry.MetricRunCacheMisses,
	"runcache.sf_waits":     "greengpu_runcache_single_flight_waits_total",
	"core.runs":             "greengpu_core_runs_total",
	"core.iterations":       "greengpu_core_iterations_total",
	"sim.events":            "greengpu_sim_events_total",
	"gpusim.kernels":        "greengpu_gpusim_kernels_total",
	"cpusim.jobs":           "greengpu_cpusim_jobs_total",
	"dvfs.steps":            "greengpu_dvfs_steps_total",
	"dvfs.level_changes":    "greengpu_dvfs_level_changes_total",
	"division.observations": "greengpu_division_observations_total",
	"governor.decisions":    "greengpu_governor_decisions_total",
	"sweep.points":          telemetry.MetricSweepPoints,
	"sweep.fast_points":     telemetry.MetricSweepFastPath,
	"sweep.fallback_points": telemetry.MetricSweepFallback,
	"predict.full_evals":    telemetry.MetricPredictFullEvals,
	"parallel.tasks":        "greengpu_parallel_tasks_total",
}

// taskSecondsMetric is the worker pool's task-duration histogram; its sum
// is the pool's busy time.
const taskSecondsMetric = "greengpu_parallel_task_seconds"

// counterSource reads telemetry counter values by name.
type counterSource func(name string) float64

func localCounters(name string) float64 {
	if name == taskSecondsMetric {
		for _, s := range telemetry.Default.Snapshot() {
			if s.Name == name {
				return s.Sum
			}
		}
		return 0
	}
	return float64(telemetry.Default.CounterValue(name))
}

// snapshotCounters reads every counter the per-layer metrics use.
func snapshotCounters(read counterSource) map[string]float64 {
	m := map[string]float64{taskSecondsMetric: read(taskSecondsMetric)}
	for _, name := range counterNames {
		m[name] = read(name)
	}
	return m
}

// fillCounters sets the counter-based per-layer metrics from before/after
// snapshots, per op over ops ops. busySeconds is the wall time the ops
// took, for the worker pool's busy ratio over workers workers.
func fillCounters(m map[string]float64, before, after map[string]float64, ops int, busySeconds float64, workers int) {
	n := float64(ops)
	d := func(name string) float64 { return after[name] - before[name] }
	for metric, name := range counterNames {
		m[metric] = d(name) / n
	}
	if look := m["runcache.hits"] + m["runcache.misses"]; look > 0 {
		m["runcache.hit_ratio"] = m["runcache.hits"] / look
	}
	if evals := m["sweep.fast_points"] + m["sweep.fallback_points"]; evals > 0 {
		m["sweep.fast_ratio"] = m["sweep.fast_points"] / evals
	}
	if busySeconds > 0 && workers > 0 {
		m["parallel.busy_ratio"] = d(taskSecondsMetric) / (busySeconds * float64(workers))
	}
}

// record is one open-loop request's timeline, as offsets from the loop's
// start: when it was due, when the generator dispatched it, when a sender
// started it, and when its response was complete.
type record struct {
	Due, Dispatched, Sent, Done time.Duration
}

// latency is the request's latency from its due time, so a stall that
// delays later requests is charged to them.
func (r record) latency() time.Duration { return r.Done - r.Due }

// openLoop issues request i at start+due[i] regardless of how earlier
// requests fare, from workers concurrent senders fed by one generator. A
// request due while every sender is busy waits in the backlog, and that
// wait counts in its latency. do sends request i and returns when its
// response was complete. A start in the past makes every request late. It
// returns each request's record and the largest backlog seen.
func openLoop(start time.Time, due []time.Duration, workers int, do func(i int) time.Time) ([]record, int) {
	recs := make([]record, len(due))
	queue := make(chan int, len(due))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				recs[i].Sent = time.Since(start)
				recs[i].Done = do(i).Sub(start)
			}
		}()
	}
	backlog := 0
	for i, at := range due {
		sleepUntil(start, at)
		recs[i].Due = at
		recs[i].Dispatched = time.Since(start)
		backlog = max(backlog, len(queue))
		queue <- i
	}
	close(queue)
	wg.Wait()
	return recs, backlog
}

// sleepUntil blocks until start+at in a kernel sleep, which wakes within
// tens of µs; the Go runtime rounds an idle timer wait up to 1 ms, which
// would make the generator itself late.
func sleepUntil(start time.Time, at time.Duration) {
	for {
		wait := at - time.Since(start)
		if wait <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(wait))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop re-checks the time
	}
}

// processCPU is the CPU time this process has used, user and system.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
