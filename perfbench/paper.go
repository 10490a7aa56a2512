package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"greengpu/internal/experiments"
	"greengpu/internal/runcache"
	"greengpu/internal/trace"
)

// paperCall is one public experiments.Env call of a paper pass and the
// committed results/ files its tables must match byte for byte.
type paperCall struct {
	// group names the experiments.<group>_ms metric the call counts in.
	group string
	name  string
	files []string
	run   func(*experiments.Env, *paperPass) ([]*trace.Table, error)
}

// paperPass carries what one pass derives besides its tables.
type paperPass struct {
	savings []float64 // Fig. 8 GreenGPU saving vs the Rodinia default
}

func one(t *trace.Table) []*trace.Table { return []*trace.Table{t} }

// paperCalls is the paper's own evaluation in the order cmd/experiments
// runs it: Table II, Fig. 1, 2, 5, 6, 7, 8 and the §VII-B static sweep.
var paperCalls = []paperCall{
	{"table2", "Env.Table2", []string{"table2.csv"}, func(e *experiments.Env, _ *paperPass) ([]*trace.Table, error) {
		r, err := e.Table2()
		if err != nil {
			return nil, err
		}
		return one(r.Table()), nil
	}},
	{"fig1", "Env.Fig1", []string{"fig1.csv"}, func(e *experiments.Env, _ *paperPass) ([]*trace.Table, error) {
		r, err := e.Fig1()
		if err != nil {
			return nil, err
		}
		return one(r.Table()), nil
	}},
	{"fig2", "Env.Fig2", []string{"fig2.csv"}, func(e *experiments.Env, _ *paperPass) ([]*trace.Table, error) {
		r, err := e.Fig2()
		if err != nil {
			return nil, err
		}
		return one(r.Table()), nil
	}},
	{"fig5", "Env.Fig5", []string{"fig5_1.csv", "fig5_2.csv"}, func(e *experiments.Env, _ *paperPass) ([]*trace.Table, error) {
		r, err := e.Fig5()
		if err != nil {
			return nil, err
		}
		return []*trace.Table{r.Table(), r.PowerTable()}, nil
	}},
	{"fig6", "Env.Fig6", []string{"fig6.csv"}, func(e *experiments.Env, _ *paperPass) ([]*trace.Table, error) {
		r, err := e.Fig6()
		if err != nil {
			return nil, err
		}
		return one(r.Table()), nil
	}},
	fig7Call("kmeans", "fig7_1.csv"),
	fig7Call("hotspot", "fig7_2.csv"),
	fig8Call("hotspot", "fig8_1.csv"),
	fig8Call("kmeans", "fig8_2.csv"),
	{"static", "Env.StaticSweep", []string{"sweep.csv"}, func(e *experiments.Env, _ *paperPass) ([]*trace.Table, error) {
		r, err := e.StaticSweep("kmeans", "hotspot")
		if err != nil {
			return nil, err
		}
		return one(r.Table()), nil
	}},
}

func fig7Call(name, file string) paperCall {
	return paperCall{"fig7", "Env.Fig7(" + name + ")", []string{file}, func(e *experiments.Env, _ *paperPass) ([]*trace.Table, error) {
		r, err := e.Fig7(name)
		if err != nil {
			return nil, err
		}
		return one(r.Table()), nil
	}}
}

func fig8Call(name, file string) paperCall {
	return paperCall{"fig8", "Env.Fig8(" + name + ")", []string{file}, func(e *experiments.Env, p *paperPass) ([]*trace.Table, error) {
		r, err := e.Fig8(name)
		if err != nil {
			return nil, err
		}
		p.savings = append(p.savings, r.SavingVsBaseline)
		return one(r.Table()), nil
	}}
}

// paperGroups are the experiments.<group>_ms metrics, one per figure.
var paperGroups = []string{"table2", "fig1", "fig2", "fig5", "fig6", "fig7", "fig8", "static"}

// paperSetup is the work before the first paper pass can run: calibrating
// the environment against the testbed devices and creating its run cache.
func paperSetup() (*experiments.Env, error) {
	env, err := experiments.NewEnv()
	if err != nil {
		return nil, err
	}
	if env.Cache, err = runcache.New(runcache.Options{}); err != nil {
		return nil, err
	}
	env.Jobs = 0 // one worker per CPU, as cmd/experiments runs
	return env, nil
}

func runPaper(o *options, host hostInfo) (outcome, error) {
	want := map[string][]byte{}
	for _, c := range paperCalls {
		for _, f := range c.files {
			b, err := os.ReadFile(filepath.Join(o.root, "results", f))
			if err != nil {
				return outcome{}, err
			}
			want[f] = b
		}
	}
	setup, env, err := timeSetup(setupBatches, setupBatch, paperSetup)
	if err != nil {
		return outcome{}, err
	}

	var saving float64
	reported := false
	var buf bytes.Buffer
	op := func(i int, tr *tracer) bool {
		// Every pass starts from a fresh cache: the cache's write path is
		// part of what a pass measures.
		cache, err := runcache.New(runcache.Options{})
		if err != nil {
			fmt.Fprintln(os.Stderr, "paper:", err)
			return false
		}
		env.Cache = cache
		root := tr.begin("paper.pass", -1, i)
		defer tr.end(root)
		ok := true
		var p paperPass
		for _, c := range paperCalls {
			id := tr.begin(c.name, root, i)
			tables, err := c.run(env, &p)
			tr.end(id)
			if err != nil {
				fmt.Fprintf(os.Stderr, "paper: %s: %v\n", c.name, err)
				return false
			}
			for k, t := range tables {
				buf.Reset()
				if err := t.WriteCSV(&buf); err != nil || !bytes.Equal(buf.Bytes(), want[c.files[k]]) {
					ok = false
					if !reported {
						reported = true
						fmt.Fprintf(os.Stderr, "paper: %s does not match results/%s\n", c.name, c.files[k])
					}
				}
			}
		}
		s := 100 * (p.savings[0] + p.savings[1]) / 2
		if saving != 0 && s != saving {
			fmt.Fprintf(os.Stderr, "paper: GreenGPU saving %v differs from an earlier pass's %v\n", s, saving)
			ok = false
		}
		saving = s
		return ok
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
	out := outcome{attempted: run.attempted, failed: run.failed, metrics: map[string]float64{}}
	if !o.trace {
		rss, err := peakRSSMB("self")
		if err != nil {
			return outcome{}, err
		}
		run.e2e(out.metrics, setup, rss)
		return out, nil
	}
	m := out.metrics
	for _, g := range paperGroups {
		var names []string
		for _, c := range paperCalls {
			if c.group == g {
				names = append(names, c.name)
			}
		}
		m["experiments."+g+"_ms"] = median(tr.opTotals(names...))
	}
	m["experiments.greengpu_saving_pct"] = saving
	fillCounters(m, before, snapshotCounters(localCounters), len(run.traced), sum(run.traced)/1e3, runtime.GOMAXPROCS(0))
	if ev := m["sim.events"]; ev > 0 {
		m["core.ns_per_event"] = median(run.untraced) * 1e6 / ev
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
