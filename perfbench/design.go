package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"hash"
	"math/rand/v2"
	"os"
	"reflect"
	"runtime"
	"sort"
	"time"

	"greengpu/internal/core"
	"greengpu/internal/experiments"
	"greengpu/internal/fleet"
	"greengpu/internal/predict"
	"greengpu/internal/runcache"
	"greengpu/internal/sweep"
	"greengpu/internal/testbed"
	"greengpu/internal/workload"
)

// designSpec is one design-space study, generated from the workload seed.
// Every point runs in baseline mode, so the controllers stay idle.
type designSpec struct {
	// Ladder is a baseline core x memory ladder sweep over seeded
	// workloads, all on the closed-form path.
	Ladder sweep.Spec
	// Static is a static-division ladder, which falls back to full
	// simulation.
	Static []staticPoint
	// Probes are single baseline points evaluated one at a time.
	Probes []probePoint
	// Predict finds sweet spots on the full device ladder.
	Predict sweep.Spec
	// Fleet is a baseline fleet of about 100k nodes at fault levels 0-2.
	Fleet fleet.Spec
	// Check lists the Ladder results re-evaluated through core.Run.
	Check []int
}

type staticPoint struct {
	Workload   string
	Ratio      float64
	Iterations int
}

type probePoint struct {
	Workload              string
	Core, Mem, CPU, Iters int
}

// The study's sizes are fixed so that every seed costs about the same; the
// seed picks which workloads, levels, ratios and fleet nodes are studied.
const (
	designIters = 4
	designNodes = 100000
)

// genDesign builds the study for a seed from the environment's workload
// names and device ladders only.
func genDesign(seed uint64, env *experiments.Env) designSpec {
	rng := rand.New(rand.NewPCG(seed, 0x64657369676e))
	names := make([]string, len(env.Profiles))
	for i, p := range env.Profiles {
		names[i] = p.Name
	}
	rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
	nCore, nMem, nCPU := len(env.GPUConfig.CoreLevels), len(env.GPUConfig.MemLevels), len(env.CPUConfig.PStates)

	s := designSpec{
		Ladder:  sweep.Spec{Workloads: names[:4], Mode: core.Baseline, Iterations: designIters, CPULevel: -1},
		Predict: sweep.Spec{Workloads: names[5:8], Mode: core.Baseline, Iterations: designIters, CPULevel: -1},
		Fleet:   fleet.Spec{Nodes: designNodes, Seed: rng.Uint64N(1 << 32), FaultLevels: []int{0, 1, 2}},
	}
	for _, k := range rng.Perm(19)[:8] {
		s.Static = append(s.Static, staticPoint{Workload: names[4], Ratio: float64(k+1) / 20, Iterations: designIters})
	}
	sort.Slice(s.Static, func(i, j int) bool { return s.Static[i].Ratio < s.Static[j].Ratio })
	for i := 0; i < 8; i++ {
		s.Probes = append(s.Probes, probePoint{Workload: names[rng.IntN(len(names))],
			Core: rng.IntN(nCore), Mem: rng.IntN(nMem), CPU: rng.IntN(nCPU), Iters: designIters})
	}
	ladderPoints := len(s.Ladder.Workloads) * nCore * nMem
	s.Check = rng.Perm(ladderPoints)[:6]
	sort.Ints(s.Check)
	return s
}

// designSetup is the work before the first design pass can run: the
// calibrated environment and the batch engine's shared level tables.
func designSetup() (*experiments.Env, error) {
	env, err := experiments.NewEnv()
	if err != nil {
		return nil, err
	}
	eng := designEngine(env, nil)
	if _, err := eng.NewBatch(); err != nil {
		return nil, err
	}
	return env, nil
}

func designEngine(env *experiments.Env, cache *runcache.Cache) *sweep.Engine {
	return &sweep.Engine{GPU: env.GPUConfig, CPU: env.CPUConfig, Bus: env.BusConfig,
		Profiles: env.Profiles, Cache: cache}
}

// designOut is what one pass produced: its output digest, the results the
// post-run check re-evaluates, and the counts the traced run reports.
type designOut struct {
	digest            []byte
	ladder            []sweep.PointResult
	probes            []*core.Result
	fullEvals, points int
	nodes, groups     int
	dedup             float64
}

// designPass runs one study with a fresh cache.
func designPass(env *experiments.Env, s *designSpec, tr *tracer, op int) (*designOut, error) {
	cache, err := runcache.New(runcache.Options{})
	if err != nil {
		return nil, err
	}
	eng := designEngine(env, cache)
	root := tr.begin("design.pass", -1, op)
	defer tr.end(root)
	out := &designOut{}
	h := sha256.New()

	id := tr.begin("sweep.Engine.Run", root, op)
	out.ladder, err = eng.Run(s.Ladder)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	if err := sweep.Table(eng, out.ladder).WriteCSV(h); err != nil {
		return nil, err
	}

	batch, err := eng.NewBatch()
	if err != nil {
		return nil, err
	}
	eval := func(name string, cfg core.Config) (*core.Result, error) {
		id := tr.begin("Batch.Eval", root, op)
		r, fast, err := batch.Eval(name, cfg)
		tr.end(id)
		if err != nil {
			return nil, err
		}
		if fast {
			tr.rename(id, "Batch.Eval(fast)")
		} else {
			tr.rename(id, "Batch.Eval(fallback)")
		}
		hashResult(h, r)
		return r, nil
	}
	for _, p := range s.Static {
		ratio := p.Ratio
		cfg := core.DefaultConfig(core.Baseline)
		cfg.Iterations = p.Iterations
		cfg.StaticRatio = &ratio
		if _, err := eval(p.Workload, cfg); err != nil {
			return nil, err
		}
	}
	for _, p := range s.Probes {
		r, err := eval(p.Workload, probeConfig(p))
		if err != nil {
			return nil, err
		}
		out.probes = append(out.probes, r)
	}

	opts := predict.Options{}
	id = tr.begin("Engine.PredictSweetSpots", root, op)
	spots, err := eng.PredictSweetSpots(s.Predict, opts)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	for _, sp := range spots {
		out.fullEvals += sp.Outcome.FullEvals
		out.points += sp.Outcome.Points
	}
	if err := sweep.SpotsTable(eng, opts, spots).WriteCSV(h); err != nil {
		return nil, err
	}

	id = tr.begin("fleet.Engine.Run", root, op)
	fr, err := (&fleet.Engine{Cache: cache}).Run(s.Fleet)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	out.nodes, out.groups, out.dedup = fr.Agg.Nodes, len(fr.Groups), fr.DedupRatio()
	if err := fleet.GroupsTable(fr).WriteCSV(h); err != nil {
		return nil, err
	}
	if err := fleet.SummaryTable(fr).WriteCSV(h); err != nil {
		return nil, err
	}
	out.digest = h.Sum(nil)
	return out, nil
}

func probeConfig(p probePoint) core.Config {
	cfg := core.DefaultConfig(core.Baseline)
	cfg.Iterations = p.Iters
	cfg.InitialLevels = &core.Levels{Core: p.Core, Mem: p.Mem, CPU: p.CPU}
	return cfg
}

// hashResult feeds every field of a result into h; %v prints floats in
// their shortest round-trip form, so equal digests mean equal results.
func hashResult(h hash.Hash, r *core.Result) {
	fmt.Fprintf(h, "%+v\n", *r)
}

// checkClosedForm re-evaluates the seeded sample of closed-form ladder
// points and every probe through core.Run, requiring exact equality.
func checkClosedForm(env *experiments.Env, s *designSpec, out *designOut) error {
	run := func(name string, cfg core.Config) (*core.Result, error) {
		p, err := workload.ByName(env.Profiles, name)
		if err != nil {
			return nil, err
		}
		return core.Run(testbed.NewFrom(env.GPUConfig, env.CPUConfig, env.BusConfig), p, cfg)
	}
	for _, k := range s.Check {
		pr := out.ladder[k]
		if !pr.Fast {
			return fmt.Errorf("ladder point %d (%s) did not take the closed form", k, pr.Workload)
		}
		want, err := run(pr.Workload, probeConfig(probePoint{Core: pr.Core, Mem: pr.Mem, CPU: pr.CPU, Iters: s.Ladder.Iterations}))
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(want, pr.Result) {
			return fmt.Errorf("ladder point %d (%s core=%d mem=%d): closed form differs from core.Run", k, pr.Workload, pr.Core, pr.Mem)
		}
	}
	for i, p := range s.Probes {
		want, err := run(p.Workload, probeConfig(p))
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(want, out.probes[i]) {
			return fmt.Errorf("probe %d (%+v): Batch.Eval differs from core.Run", i, p)
		}
	}
	return nil
}

func runDesign(o *options, host hostInfo) (outcome, error) {
	setup, env, err := timeSetup(setupBatches, setupBatch, designSetup)
	if err != nil {
		return outcome{}, err
	}
	spec := genDesign(o.seed, env)

	var first, last *designOut
	reported := false
	op := func(i int, tr *tracer) bool {
		out, err := designPass(env, &spec, tr, i)
		if err != nil {
			fmt.Fprintln(os.Stderr, "design:", err)
			return false
		}
		last = out
		if first == nil {
			first = out
			return true
		}
		if !bytes.Equal(out.digest, first.digest) {
			if !reported {
				reported = true
				fmt.Fprintf(os.Stderr, "design: pass %d output digest differs from the first pass\n", i)
			}
			return false
		}
		return true
	}

	tr := (*tracer)(nil)
	if o.trace {
		tr = newTracer()
	}
	before := snapshotCounters(localCounters)
	run, err := closedLoop(time.Duration(o.seconds)*time.Second, tr, o.params["slo_ms"], op)
	if err != nil {
		return outcome{}, err
	}
	after := snapshotCounters(localCounters)
	out := outcome{attempted: run.attempted, failed: run.failed, metrics: map[string]float64{}}
	out.attempted++
	if last == nil {
		out.failed++
	} else if err := checkClosedForm(env, &spec, last); err != nil {
		fmt.Fprintln(os.Stderr, "design:", err)
		out.failed++
	}
	if !o.trace {
		rss, err := peakRSSMB("self")
		if err != nil {
			return outcome{}, err
		}
		run.e2e(out.metrics, setup, rss)
		return out, nil
	}
	m := out.metrics
	fillCounters(m, before, after, len(run.traced), sum(run.traced)/1e3, runtime.GOMAXPROCS(0))
	m["sweep.ladder_ms"] = median(tr.durations("sweep.Engine.Run"))
	m["sweep.eval_fast_us"] = 1e3 * median(tr.durations("Batch.Eval(fast)"))
	m["sweep.eval_fallback_us"] = 1e3 * median(tr.durations("Batch.Eval(fallback)"))
	m["predict.search_ms"] = median(tr.durations("Engine.PredictSweetSpots"))
	if last != nil && last.fullEvals > 0 {
		m["predict.eval_reduction"] = float64(last.points) / float64(last.fullEvals)
	}
	m["fleet.run_ms"] = median(tr.durations("fleet.Engine.Run"))
	if last != nil {
		m["fleet.nodes"] = float64(last.nodes)
		m["fleet.groups"] = float64(last.groups)
		m["fleet.dedup_ratio"] = last.dedup
	}
	if err := run.layer(m); err != nil {
		return outcome{}, err
	}
	path, err := writeSpans(o, host, tr)
	if err != nil {
		return outcome{}, err
	}
	fmt.Fprintln(os.Stderr, "perfbench: spans written to", path)
	return out, nil
}
