package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
)

// compareMain flags regressions between two sets of result lines, such as
// runs of a parent commit and of a change on one workload:
//
//	perfbench compare [-bench BENCHMARK.json] parent.jsonl change.jsonl
//
// Each file holds the last output lines of several runs, one JSON result
// per line; other lines are skipped. It exits 1 when any end-to-end
// metric's median worsened by more than its bound, or when the change
// failed more operations.
func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	benchPath := fs.String("bench", "BENCHMARK.json", "benchmark definition holding the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: perfbench compare [-bench BENCHMARK.json] parent.jsonl change.jsonl")
		return 2
	}
	bf, err := loadBenchFile(*benchPath)
	if err != nil {
		fmt.Fprintln(stderr, "compare:", err)
		return 2
	}
	var sets [2][]result
	for k, path := range fs.Args() {
		if sets[k], err = readResults(path); err != nil {
			fmt.Fprintln(stderr, "compare:", err)
			return 2
		}
	}
	flags := regressions(bf.EndToEnd, sets[0], sets[1])
	for _, f := range flags {
		fmt.Fprintln(stdout, f)
	}
	if len(flags) > 0 {
		return 1
	}
	fmt.Fprintf(stdout, "no regression beyond the bounds (%d parent runs, %d change runs)\n", len(sets[0]), len(sets[1]))
	return 0
}

// readResults reads every result line of a file.
func readResults(path string) ([]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []result
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		var r result
		if json.Unmarshal([]byte(line), &r) == nil && r.Metrics != nil {
			out = append(out, r)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no result lines", path)
	}
	return out, nil
}

// regressions compares the change's runs with the parent's: a metric
// regresses when the change's median is worse than the parent's by more
// than the metric's bound, a share of the parent's median. More failed
// operations, or any incorrect run, is flagged too.
func regressions(decls []metricDecl, parent, change []result) []string {
	var flags []string
	failed := func(rs []result) (n int, incorrect bool) {
		for _, r := range rs {
			n += r.Failed
			incorrect = incorrect || !r.Correct
		}
		return n, incorrect
	}
	pf, _ := failed(parent)
	cf, bad := failed(change)
	if cf > pf || bad {
		flags = append(flags, fmt.Sprintf("failures: change failed %d ops (correct on every run: %v), parent %d", cf, !bad, pf))
	}
	values := func(rs []result, name string) []float64 {
		var v []float64
		for _, r := range rs {
			if m, ok := r.Metrics[name]; ok {
				v = append(v, m.Value)
			}
		}
		return v
	}
	for _, d := range decls {
		p, c := median(values(parent, d.Name)), median(values(change, d.Name))
		worse := c > p*(1+d.Bound)
		if d.Better == "higher" {
			worse = c < p*(1-d.Bound)
		}
		if worse {
			flags = append(flags, fmt.Sprintf("%s: median %.6g %s vs parent %.6g, beyond the %.0f%% bound",
				d.Name, c, d.Unit, p, 100*d.Bound))
		}
	}
	return flags
}
