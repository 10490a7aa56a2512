// Command perfbench is the repository's benchmark. It runs one of three
// workloads (paper, design, daemon) from outside the program, times calls
// into each layer's public functions, checks every output, and prints one
// JSON result line: the end-to-end metrics of BENCHMARK.json in an
// untraced run, the per-layer metrics in a traced run. See README.md.
//
//	perfbench -root . -daemon-bin greengpud --workload paper --seed 1 --seconds 30 --trace 0
//	perfbench compare parent.jsonl change.jsonl
//
// It is normally started through run.sh, which builds both binaries.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	if err := benchMain(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// options are one run's command-line settings.
type options struct {
	workload  string
	seed      uint64
	seconds   int
	trace     bool
	root      string
	daemonBin string
	// params are the workload's key=value settings from its BENCHMARK.json
	// description (slo_ms, and rate_rps for the daemon).
	params map[string]float64
}

// outcome is what a workload run reports: op counts, and the metrics of
// the run's mode (end-to-end untraced, per-layer traced).
type outcome struct {
	attempted, failed int
	metrics           map[string]float64
}

func benchMain(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	o := options{}
	fs.StringVar(&o.workload, "workload", "", "workload to run: paper, design or daemon")
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed; the same seed generates the same inputs")
	fs.IntVar(&o.seconds, "seconds", 30, "measured seconds")
	traceFlag := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
	fs.StringVar(&o.root, "root", ".", "repository checkout holding BENCHMARK.json and results/")
	fs.StringVar(&o.daemonBin, "daemon-bin", "", "greengpud binary built from the checkout (daemon workload)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		return fmt.Errorf("-trace %d: must be 0 or 1", *traceFlag)
	}
	o.trace = *traceFlag == 1
	if o.seconds < 1 {
		return fmt.Errorf("-seconds %d: must be positive", o.seconds)
	}
	bf, err := loadBenchFile(filepath.Join(o.root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	var why string
	for _, w := range bf.Workloads {
		if w.Name == o.workload {
			why = w.Why
		}
	}
	if why == "" {
		return fmt.Errorf("unknown workload %q (BENCHMARK.json lists %v)", o.workload, bf.workloadNames())
	}
	o.params = parseParams(why)
	if o.params["slo_ms"] <= 0 {
		return fmt.Errorf("workload %s: its BENCHMARK.json description sets no slo_ms", o.workload)
	}
	decls := bf.EndToEnd
	if o.trace {
		decls = bf.PerLayer
	}
	if err := checkDecls(decls, o.trace); err != nil {
		return err
	}

	host := fingerprint(o.root, o.seed)
	if err := json.NewEncoder(stdout).Encode(map[string]any{"workload": o.workload, "trace": o.trace, "host": host}); err != nil {
		return err
	}
	var out outcome
	switch o.workload {
	case "paper":
		out, err = runPaper(&o, host)
	case "design":
		out, err = runDesign(&o, host)
	case "daemon":
		out, err = runDaemon(&o, host)
	default:
		err = fmt.Errorf("workload %q has no implementation", o.workload)
	}
	if err != nil {
		return err
	}
	res, err := buildResult(out, decls, !o.trace)
	if err != nil {
		return err
	}
	return json.NewEncoder(stdout).Encode(res)
}

// benchFile is BENCHMARK.json.
type benchFile struct {
	Workloads []benchWorkload `json:"workloads"`
	EndToEnd  []metricDecl    `json:"end_to_end"`
	PerLayer  []metricDecl    `json:"per_layer"`
}

type benchWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// metricDecl declares one metric. Bound and Better apply to end-to-end
// metrics only: the share of the parent's median by which the metric may
// worsen before a change counts as a regression.
type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadBenchFile(path string) (*benchFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

func (bf *benchFile) workloadNames() []string {
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	return names
}

var paramRE = regexp.MustCompile(`\b([a-z_]+)=([0-9]+(?:\.[0-9]+)?)\b`)

// parseParams extracts the key=value numbers of a workload description, so
// the rate and latency limit live in BENCHMARK.json next to the bounds.
func parseParams(why string) map[string]float64 {
	p := map[string]float64{}
	for _, m := range paramRE.FindAllStringSubmatch(why, -1) {
		v, err := strconv.ParseFloat(m[2], 64)
		if err == nil {
			p[m[1]] = v
		}
	}
	return p
}

// checkDecls verifies that BENCHMARK.json declares exactly the metrics this
// program reports, with the same units, so the two cannot drift apart.
func checkDecls(decls []metricDecl, traced bool) error {
	want := e2eMetrics
	if traced {
		want = layerMetrics
	}
	got := map[string]string{}
	for _, d := range decls {
		got[d.Name] = d.Unit
	}
	for name, unit := range want {
		u, ok := got[name]
		switch {
		case !ok:
			return fmt.Errorf("BENCHMARK.json does not declare metric %s", name)
		case u != unit:
			return fmt.Errorf("BENCHMARK.json gives metric %s unit %q, perfbench reports %q", name, u, unit)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			return fmt.Errorf("BENCHMARK.json declares metric %s, which perfbench does not report", name)
		}
	}
	return nil
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// buildResult attaches units to the outcome's metrics. With requireAll
// every declared metric must be measured; otherwise a per-layer metric
// the workload does not exercise reads 0.
func buildResult(out outcome, decls []metricDecl, requireAll bool) (result, error) {
	if out.attempted < 1 {
		return result{}, errors.New("no operation was attempted")
	}
	res := result{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed,
		Metrics: map[string]metric{}}
	known := map[string]bool{}
	for _, d := range decls {
		known[d.Name] = true
		v, ok := out.metrics[d.Name]
		if !ok && requireAll {
			return result{}, fmt.Errorf("metric %s was not measured", d.Name)
		}
		res.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	var extra []string
	for name := range out.metrics {
		if !known[name] {
			extra = append(extra, name)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return result{}, fmt.Errorf("metrics %v are not declared", extra)
	}
	return res, nil
}

// e2eMetrics are the end-to-end metrics every workload reports, with units.
var e2eMetrics = map[string]string{
	"setup_s":       "s",
	"op_ms_p50":     "ms",
	"cpu_ms_per_op": "ms",
	"good_ratio":    "ratio",
	"rss_peak_mb":   "MB",
}

// layerMetrics are the per-layer metrics a traced run reports, with units.
// "/op" counts are per pass (paper, design) or per request (daemon).
var layerMetrics = map[string]string{
	"experiments.table2_ms":           "ms",
	"experiments.fig1_ms":             "ms",
	"experiments.fig2_ms":             "ms",
	"experiments.fig5_ms":             "ms",
	"experiments.fig6_ms":             "ms",
	"experiments.fig7_ms":             "ms",
	"experiments.fig8_ms":             "ms",
	"experiments.static_ms":           "ms",
	"experiments.greengpu_saving_pct": "%",
	"runcache.hits":                   "count/op",
	"runcache.misses":                 "count/op",
	"runcache.hit_ratio":              "ratio",
	"runcache.sf_waits":               "count/op",
	"core.runs":                       "count/op",
	"core.iterations":                 "count/op",
	"sim.events":                      "count/op",
	"core.ns_per_event":               "ns",
	"gpusim.kernels":                  "count/op",
	"cpusim.jobs":                     "count/op",
	"dvfs.steps":                      "count/op",
	"dvfs.level_changes":              "count/op",
	"division.observations":           "count/op",
	"governor.decisions":              "count/op",
	"sweep.points":                    "count/op",
	"sweep.fast_points":               "count/op",
	"sweep.fallback_points":           "count/op",
	"sweep.fast_ratio":                "ratio",
	"sweep.ladder_ms":                 "ms",
	"sweep.eval_fast_us":              "us",
	"sweep.eval_fallback_us":          "us",
	"predict.search_ms":               "ms",
	"predict.full_evals":              "count/op",
	"predict.eval_reduction":          "ratio",
	"fleet.run_ms":                    "ms",
	"fleet.nodes":                     "count/op",
	"fleet.groups":                    "count/op",
	"fleet.dedup_ratio":               "ratio",
	"parallel.tasks":                  "count/op",
	"parallel.busy_ratio":             "ratio",
	"daemon.simulate_ms_p50":          "ms",
	"daemon.sweep_ms_p50":             "ms",
	"daemon.fleet_ms_p50":             "ms",
	"daemon.results_ms_p50":           "ms",
	"daemon.handler_us_p50":           "us",
	"daemon.http_us_p50":              "us",
	"daemon.fast_ratio":               "ratio",
	"daemon.shed":                     "count",
	"jobstore.accept_ms_p50":          "ms",
	"jobstore.appends":                "count",
	"daemon.job_done_ms_p50":          "ms",
	"telemetry.scrape_ms_p50":         "ms",
	"telemetry.scrape_bytes":          "bytes",
	"loadgen.late_ms_p99":             "ms",
	"loadgen.backlog_max":             "count",
	"loadgen.sent":                    "count",
	"go.allocs_per_op":                "count/op",
	"go.alloc_bytes_per_op":           "bytes/op",
	"go.gc_cycles":                    "count/op",
	"trace.overhead_ratio":            "ratio",
	"tail.op_ms_p90":                  "ms",
	"tail.op_ms_p99":                  "ms",
}

// writeSpans writes a traced run's spans, their per-name summary and the
// host fingerprint to .bench_build/out in the checkout, and returns the
// file's path.
func writeSpans(o *options, host hostInfo, tr *tracer) (string, error) {
	dir := filepath.Join(o.root, ".bench_build", "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.json", o.workload, o.seed))
	doc := struct {
		Workload string        `json:"workload"`
		Host     hostInfo      `json:"host"`
		Summary  []spanSummary `json:"summary"`
		Spans    []span        `json:"spans"`
	}{o.workload, host, tr.summary(), tr.spans}
	data, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
