package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"greengpu/internal/daemon"
	"greengpu/internal/experiments"
	"greengpu/internal/fleet"
	"greengpu/internal/runcache"
	"greengpu/internal/sweep"
	"greengpu/internal/telemetry"
)

// daemonBoots is how many times a run boots greengpud; setup_s is the
// median boot time, and the last boot serves the run.
const daemonBoots = 21

// senders is the load generator's concurrency: two connections, one per
// vCPU of the host the benchmark was sized for.
const senders = 2

type reqKind int

const (
	kindSimulate reqKind = iota
	kindSweep
	kindFleet
	kindAsync
	kindMetrics
	kindStats
)

// routes names each kind's endpoint, for spans and per-route metrics.
var routes = [...]string{"POST /v1/simulate", "POST /v1/sweep", "POST /v1/fleet", "POST /v1/sweep async", "GET /metrics", "GET /v1/stats"}

// daemonReq is one generated request.
type daemonReq struct {
	Kind   reqKind
	Method string
	Path   string
	Body   []byte
	// Sim is the simulate request Body encodes.
	Sim daemon.SimulateRequest
	// Hot is the request's index in the hot set, or -1 for a key no
	// earlier request used.
	Hot int
	// Spec indexes the plan's spec list of the request's kind.
	Spec int
}

// daemonPlan is the daemon workload's input: when each request is due
// and what it asks for.
type daemonPlan struct {
	Due                                []time.Duration
	Reqs                               []daemonReq
	SweepSpecs, AsyncSpecs, FleetSpecs []string
}

// Shares of the request mix. Scrapes and async sweeps are periodic; the
// rest is drawn per request.
const (
	hotKeys       = 24
	hotShare      = 0.3
	sweepShare    = 0.02
	fleetShare    = 0.01
	asyncPeriod   = 2 // seconds between async sweeps
	maxSimIters   = 12
	simModesCount = 4
)

var simModes = [simModesCount]string{"baseline", "scaling", "division", "holistic"}

// simKey is a simulate request's identity: workload, mode, levels and
// iteration count.
type simKey struct{ w, mode, core, mem, cpu, iters int }

// genDaemon generates the request sequence for a seed at the given rate
// over the given seconds, from the environment's workload names and device
// ladders only.
func genDaemon(seed uint64, rate, seconds int, env *experiments.Env) daemonPlan {
	rng := rand.New(rand.NewPCG(seed, 0x6461656d6f6e))
	names := make([]string, len(env.Profiles))
	for i, p := range env.Profiles {
		names[i] = p.Name
	}
	nCore, nMem, nCPU := len(env.GPUConfig.CoreLevels), len(env.GPUConfig.MemLevels), len(env.CPUConfig.PStates)
	used := map[simKey]bool{}
	fresh := func() simKey {
		for {
			k := simKey{rng.IntN(len(names)), rng.IntN(simModesCount), rng.IntN(nCore), rng.IntN(nMem),
				rng.IntN(nCPU), 1 + rng.IntN(maxSimIters)}
			if !used[k] {
				used[k] = true
				return k
			}
		}
	}
	hot := make([]simKey, hotKeys)
	for i := range hot {
		hot[i] = fresh()
	}
	var p daemonPlan
	// Spec shapes are fixed so that every seed costs about the same; the
	// seed picks workloads, ladder ranges and fleet draws.
	for i := 0; i < 6; i++ {
		c, m := rng.IntN(nCore-2), rng.IntN(nMem-2)
		p.SweepSpecs = append(p.SweepSpecs, fmt.Sprintf("workloads=%s core=%d-%d mem=%d-%d iters=4",
			names[rng.IntN(len(names))], c, c+2, m, m+2))
	}
	for i := 0; i < 3; i++ {
		m := rng.IntN(nMem - 3)
		p.AsyncSpecs = append(p.AsyncSpecs, fmt.Sprintf("workloads=%s,%s core=all mem=%d-%d iters=4",
			names[rng.IntN(len(names))], names[rng.IntN(len(names))], m, m+3))
	}
	for i := 0; i < 3; i++ {
		p.FleetSpecs = append(p.FleetSpecs, fmt.Sprintf("nodes=2000 seed=%d faults=0,1", rng.IntN(1<<20)))
	}

	n := rate * seconds
	for i := 0; i < n; i++ {
		p.Due = append(p.Due, time.Duration(i)*time.Second/time.Duration(rate))
		slot := i % rate
		var r daemonReq
		switch {
		case slot == 0:
			r = daemonReq{Kind: kindMetrics, Method: "GET", Path: "/metrics"}
		case slot == rate/2:
			r = daemonReq{Kind: kindStats, Method: "GET", Path: "/v1/stats"}
		case slot == rate/4 && (i/rate)%asyncPeriod == 0:
			r = daemonReq{Kind: kindAsync, Method: "POST", Path: "/v1/sweep", Spec: rng.IntN(len(p.AsyncSpecs))}
			r.Body = jobBody(p.AsyncSpecs[r.Spec], true)
		default:
			u := rng.Float64()
			switch {
			case u < sweepShare:
				r = daemonReq{Kind: kindSweep, Method: "POST", Path: "/v1/sweep?format=csv", Spec: rng.IntN(len(p.SweepSpecs))}
				r.Body = jobBody(p.SweepSpecs[r.Spec], false)
			case u < sweepShare+fleetShare:
				r = daemonReq{Kind: kindFleet, Method: "POST", Path: "/v1/fleet?format=csv", Spec: rng.IntN(len(p.FleetSpecs))}
				r.Body = jobBody(p.FleetSpecs[r.Spec], false)
			default:
				r = daemonReq{Kind: kindSimulate, Method: "POST", Path: "/v1/simulate", Hot: -1}
				var k simKey
				if rng.Float64() < hotShare {
					r.Hot = rng.IntN(hotKeys)
					k = hot[r.Hot]
				} else {
					k = fresh()
				}
				r.Sim = daemon.SimulateRequest{Workload: names[k.w], Mode: simModes[k.mode], Iterations: k.iters,
					Core: intp(k.core), Mem: intp(k.mem), CPU: intp(k.cpu)}
				r.Body, _ = json.Marshal(r.Sim) // plain struct: cannot fail
			}
		}
		p.Reqs = append(p.Reqs, r)
	}
	return p
}

func intp(v int) *int { return &v }

func jobBody(spec string, async bool) []byte {
	b, _ := json.Marshal(daemon.JobRequest{Spec: spec, Async: async}) // plain struct: cannot fail
	return b
}

// daemonProc is a running greengpud.
type daemonProc struct {
	cmd      *exec.Cmd
	base     string
	logDone  chan struct{}
	stateDir string
}

// bootDaemon starts greengpud on a free loopback port with a fresh state
// directory and waits until /healthz answers 200.
func bootDaemon(bin, stateDir string, client *http.Client) (*daemonProc, error) {
	if err := os.MkdirAll(stateDir, 0o755); err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-state-dir", stateDir)
	// If perfbench itself is killed, take greengpud down with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemonProc{cmd: cmd, logDone: make(chan struct{}), stateDir: stateDir}
	addr := make(chan string, 1)
	var log []string // read once logDone is closed
	go func() {
		defer close(d.logDone)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "greengpud: listening on "); ok {
				addr <- a
				continue
			}
			log = append(log, sc.Text())
		}
		_, _ = io.Copy(io.Discard, stderr) // drain after an over-long line
	}()
	select {
	case d.base = <-addr:
	case <-d.logDone:
		return nil, fmt.Errorf("greengpud exited before listening: %v: %s", cmd.Wait(), strings.Join(log, "; "))
	case <-time.After(30 * time.Second):
		return nil, errors.Join(errors.New("greengpud did not start listening"), d.stop())
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := client.Get(d.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			return nil, errors.Join(errors.New("greengpud /healthz never answered 200"), d.stop())
		}
		time.Sleep(time.Millisecond)
	}
}

// stop asks greengpud to drain and exit, kills it if it does not, waits
// for it, and removes its state directory.
func (d *daemonProc) stop() error {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.logDone:
	case <-time.After(15 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.logDone
	}
	err := d.cmd.Wait()
	return errors.Join(err, os.RemoveAll(d.stateDir))
}

// fetch sends one request and returns the status, content type and body.
func fetch(client *http.Client, method, url string, body []byte) (int, string, []byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, "", nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, "", nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header.Get("Content-Type"), b, err
}

// scrape reads the daemon's /metrics counters and histogram sums.
func scrape(client *http.Client, base string) (map[string]float64, error) {
	code, _, body, err := fetch(client, "GET", base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", code)
	}
	return parseProm(body), nil
}

// parseProm reads the unlabelled samples of a Prometheus text exposition.
func parseProm(body []byte) map[string]float64 {
	m := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		f := strings.Fields(line)
		if len(f) != 2 || strings.HasPrefix(line, "#") || strings.Contains(f[0], "{") {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			m[f[0]] = v
		}
	}
	return m
}

func remoteCounters(m map[string]float64) counterSource {
	return func(name string) float64 {
		if name == taskSecondsMetric {
			return m[name+"_sum"]
		}
		return m[name]
	}
}

func statsOf(client *http.Client, base string) (runcache.Stats, error) {
	code, _, body, err := fetch(client, "GET", base+"/v1/stats", nil)
	if err != nil {
		return runcache.Stats{}, err
	}
	var st daemon.StatsResponse
	if err := json.Unmarshal(body, &st); err != nil || code != http.StatusOK || st.Cache == nil {
		return runcache.Stats{}, fmt.Errorf("/v1/stats: status %d, %v", code, err)
	}
	return *st.Cache, nil
}

// daemonRun is the state of one daemon workload run.
type daemonRun struct {
	plan   *daemonPlan
	client *http.Client
	base   string
	start  time.Time
	tr     *tracer
	refs   map[string][]byte // expected CSV per spec

	// Written by the sender handling request i, read after the loop.
	jobDone []time.Time // when an async job's results were complete
	ok      []bool
	bodies  [][]byte // simulate response bodies
	fast    []bool
	scrapeB []int

	mu    sync.Mutex
	hot   map[int][]byte // first body per hot key
	polls []float64      // /v1/results poll times, ms
	fails int            // reported failures, to cap stderr output
}

func (d *daemonRun) failf(format string, args ...any) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.fails++
	if d.fails <= 5 {
		fmt.Fprintf(os.Stderr, "daemon: "+format+"\n", args...)
	}
}

// do sends request i, checks its response and returns when the response
// was complete; for an async sweep that is the 202, and do then polls
// until the job's results are complete. Odd requests are traced in a
// traced run.
func (d *daemonRun) do(i int) time.Time {
	r := &d.plan.Reqs[i]
	tr := d.tr
	if i%2 == 0 {
		tr = nil
	}
	id := tr.begin(routes[r.Kind], -1, i)
	code, _, body, err := fetch(d.client, r.Method, d.base+r.Path, r.Body)
	at := time.Now()
	defer tr.end(id)
	if err != nil {
		d.failf("request %d %s: %v", i, routes[r.Kind], err)
		return at
	}
	want := http.StatusOK
	if r.Kind == kindAsync {
		want = http.StatusAccepted
	}
	if code != want {
		d.failf("request %d %s: status %d: %s", i, routes[r.Kind], code, bytes.TrimSpace(body))
		return at
	}
	d.ok[i] = d.check(i, r, body, tr, id)
	return at
}

// check checks request i's response body; parent is the request's span.
func (d *daemonRun) check(i int, r *daemonReq, body []byte, tr *tracer, parent int) bool {
	switch r.Kind {
	case kindSimulate:
		var got daemon.SimulateResponse
		if err := json.Unmarshal(body, &got); err != nil {
			d.failf("simulate %d: %v", i, err)
			return false
		}
		mode, _ := sweep.ParseMode(r.Sim.Mode) // generated from simModes: always valid
		if got.Workload != r.Sim.Workload || got.Mode != mode.String() || got.Iterations != r.Sim.Iterations ||
			got.Core != *r.Sim.Core || got.Mem != *r.Sim.Mem || got.CPU != *r.Sim.CPU {
			d.failf("simulate %d: response %s does not answer request %s", i, body, r.Body)
			return false
		}
		d.bodies[i], d.fast[i] = body, got.Fast
		if r.Hot >= 0 {
			d.mu.Lock()
			first, seen := d.hot[r.Hot]
			if !seen {
				d.hot[r.Hot] = body
			}
			d.mu.Unlock()
			if seen && !bytes.Equal(first, body) {
				d.failf("simulate %d: hot key %d answered differently than before", i, r.Hot)
				return false
			}
		}
	case kindSweep:
		return d.matchCSV(i, d.plan.SweepSpecs[r.Spec], body)
	case kindFleet:
		return d.matchCSV(i, d.plan.FleetSpecs[r.Spec], body)
	case kindAsync:
		return d.await(i, r, body, tr, parent)
	case kindMetrics:
		d.scrapeB[i] = len(body)
		if !bytes.Contains(body, []byte("greengpu_daemon_requests_total")) {
			d.failf("metrics %d: scrape lacks greengpu_daemon_requests_total", i)
			return false
		}
	case kindStats:
		var st daemon.StatsResponse
		if err := json.Unmarshal(body, &st); err != nil || st.Cache == nil {
			d.failf("stats %d: %v (cache %v)", i, err, st.Cache)
			return false
		}
	}
	return true
}

func (d *daemonRun) matchCSV(i int, spec string, body []byte) bool {
	if !bytes.Equal(body, d.refs[spec]) {
		d.failf("request %d: CSV for %q differs from the in-process rendering", i, spec)
		return false
	}
	return true
}

// await polls an accepted async sweep until its CSV is ready and checks it.
func (d *daemonRun) await(i int, r *daemonReq, body []byte, tr *tracer, parent int) bool {
	var job daemon.JobResponse
	if err := json.Unmarshal(body, &job); err != nil || job.ID == "" {
		d.failf("async %d: bad 202 body %s", i, body)
		return false
	}
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		id := tr.begin("GET /v1/results/{id}", parent, i)
		t0 := time.Now()
		code, ctype, b, err := fetch(d.client, "GET", d.base+"/v1/results/"+job.ID+"?format=csv", nil)
		el := time.Since(t0)
		tr.end(id)
		d.mu.Lock()
		d.polls = append(d.polls, ms(el))
		d.mu.Unlock()
		if err != nil || code != http.StatusOK {
			d.failf("async %d: poll: status %d, %v", i, code, err)
			return false
		}
		if strings.HasPrefix(ctype, "text/csv") {
			d.jobDone[i] = time.Now()
			return d.matchCSV(i, d.plan.AsyncSpecs[r.Spec], b)
		}
		time.Sleep(2 * time.Millisecond)
	}
	d.failf("async %d: job %s did not finish", i, job.ID)
	return false
}

// references renders the expected CSV of every sweep and fleet spec in the
// plan in-process, with the same engines greengpud runs.
func references(env *experiments.Env, p *daemonPlan) (map[string][]byte, error) {
	refs := map[string][]byte{}
	eng := &sweep.Engine{GPU: env.GPUConfig, CPU: env.CPUConfig, Bus: env.BusConfig, Profiles: env.Profiles}
	for _, s := range append(append([]string(nil), p.SweepSpecs...), p.AsyncSpecs...) {
		spec, err := sweep.ParseSpec(s)
		if err != nil {
			return nil, err
		}
		res, err := eng.Run(spec)
		if err != nil {
			return nil, err
		}
		var b bytes.Buffer
		if err := sweep.Table(eng, res).WriteCSV(&b); err != nil {
			return nil, err
		}
		refs[s] = b.Bytes()
	}
	for _, s := range p.FleetSpecs {
		spec, err := fleet.ParseSpec(s)
		if err != nil {
			return nil, err
		}
		res, err := (&fleet.Engine{}).Run(spec)
		if err != nil {
			return nil, err
		}
		var b bytes.Buffer
		if err := fleet.GroupsTable(res).WriteCSV(&b); err != nil {
			return nil, err
		}
		refs[s] = b.Bytes()
	}
	return refs, nil
}

// replay re-sends simulate requests in-process through a fresh
// daemon.Server's ServeHTTP, timing the handler alone, and checks each
// body is byte-identical to the one the daemon sent over loopback. It
// returns the handler times in µs and the Go runtime deltas.
func replay(env *experiments.Env, d *daemonRun, idx []int) ([]float64, goDelta, int, error) {
	cache, err := runcache.New(runcache.Options{})
	if err != nil {
		return nil, goDelta{}, 0, err
	}
	srv, err := daemon.New(daemon.Config{GPU: env.GPUConfig, CPU: env.CPUConfig, Bus: env.BusConfig,
		Profiles: env.Profiles, Cache: cache})
	if err != nil {
		return nil, goDelta{}, 0, err
	}
	defer srv.Close()
	// greengpud always runs with telemetry on; so does the replay.
	telemetry.Enable()
	defer telemetry.Disable()
	var us []float64
	var g goDelta
	bad := 0
	for _, i := range idx {
		r := &d.plan.Reqs[i]
		req := httptest.NewRequest(r.Method, r.Path, bytes.NewReader(r.Body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		before := readGo()
		t0 := time.Now()
		srv.ServeHTTP(rec, req)
		el := time.Since(t0)
		g.add(before, readGo())
		us = append(us, float64(el)/float64(time.Microsecond))
		if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), d.bodies[i]) {
			bad++
			d.failf("simulate %d: in-process replay answered differently than greengpud", i)
		}
	}
	return us, g, bad, nil
}

func runDaemon(o *options, host hostInfo) (outcome, error) {
	rate := int(o.params["rate_rps"])
	if rate < 10 {
		return outcome{}, fmt.Errorf("daemon: its BENCHMARK.json description sets no rate_rps >= 10")
	}
	if o.daemonBin == "" {
		return outcome{}, errors.New("daemon: -daemon-bin is required")
	}
	env, err := experiments.NewEnv()
	if err != nil {
		return outcome{}, err
	}
	// As in the closed loops, a run lasts at least long enough for a p99
	// over the untraced half of a traced run.
	plan := genDaemon(o.seed, rate, max(o.seconds, (2*minSamples(990)+rate-1)/rate), env)
	refs, err := references(env, &plan)
	if err != nil {
		return outcome{}, err
	}
	transport := &http.Transport{MaxConnsPerHost: senders, MaxIdleConnsPerHost: senders, DisableCompression: true}
	defer transport.CloseIdleConnections()
	client := &http.Client{Transport: transport, Timeout: 60 * time.Second}

	stateRoot := filepath.Join(o.root, ".bench_build", "state", strconv.Itoa(os.Getpid()))
	defer os.RemoveAll(stateRoot)
	boot := 0
	setup, proc, err := timeSetup(daemonBoots, 1, func() (*daemonProc, error) {
		boot++
		p, err := bootDaemon(o.daemonBin, filepath.Join(stateRoot, strconv.Itoa(boot)), client)
		if err == nil && boot < daemonBoots {
			err = p.stop()
		}
		return p, err
	})
	if err != nil {
		return outcome{}, err
	}
	stopped := false
	defer func() {
		if !stopped {
			_ = proc.stop()
		}
	}()

	n := len(plan.Reqs)
	d := &daemonRun{plan: &plan, client: client, base: proc.base, refs: refs,
		jobDone: make([]time.Time, n), ok: make([]bool, n), bodies: make([][]byte, n),
		fast: make([]bool, n), scrapeB: make([]int, n), hot: map[int][]byte{}}
	if o.trace {
		d.tr = newTracer()
	}
	promBefore, err := scrape(client, proc.base)
	if err != nil {
		return outcome{}, err
	}
	statsBefore, err := statsOf(client, proc.base)
	if err != nil {
		return outcome{}, err
	}
	pid := strconv.Itoa(proc.cmd.Process.Pid)
	cpuBefore, err := processCPUOf(pid)
	if err != nil {
		return outcome{}, err
	}
	d.start = time.Now().Add(50 * time.Millisecond)
	recs, backlog := openLoop(d.start, plan.Due, senders, d.do)
	wall := time.Since(d.start)
	promAfter, err := scrape(client, proc.base)
	if err != nil {
		return outcome{}, err
	}
	statsAfter, err := statsOf(client, proc.base)
	if err != nil {
		return outcome{}, err
	}
	rss, err := peakRSSMB(pid)
	if err != nil {
		return outcome{}, err
	}
	cpuAfter, err := processCPUOf(pid)
	if err != nil {
		return outcome{}, err
	}
	stopped = true
	if err := proc.stop(); err != nil {
		fmt.Fprintln(os.Stderr, "daemon: greengpud exit:", err)
	}

	out := outcome{attempted: n, metrics: map[string]float64{}}
	slo := o.params["slo_ms"]
	var lat, latTraced, latUntraced []float64 // ms from due time
	var sims []int
	good := 0
	for i, rc := range recs {
		l := ms(rc.latency())
		lat = append(lat, l)
		if i%2 == 1 {
			latTraced = append(latTraced, l)
		} else {
			latUntraced = append(latUntraced, l)
		}
		if !d.ok[i] {
			out.failed++
		} else if l <= slo {
			good++
		}
		if plan.Reqs[i].Kind == kindSimulate && d.ok[i] {
			sims = append(sims, i)
		}
	}

	// Every response must also be what the daemon's handler produces
	// in-process; an untraced run checks a sample, a traced run all.
	check := sims
	if !o.trace {
		check = nil
		for k := 0; k < len(sims); k += max(len(sims)/64, 1) {
			check = append(check, sims[k])
		}
	}
	handlerUS, g, bad, err := replay(env, d, check)
	if err != nil {
		return outcome{}, err
	}
	out.failed += bad

	m := out.metrics
	if !o.trace {
		m["op_ms_p50"] = median(lat)
		m["setup_s"] = setup
		m["cpu_ms_per_op"] = ms(cpuAfter-cpuBefore) / float64(n)
		m["good_ratio"] = float64(good) / float64(n)
		m["rss_peak_mb"] = rss
		return out, nil
	}

	service := func(kind reqKind) []float64 {
		var s []float64
		for i, rc := range recs {
			if plan.Reqs[i].Kind == kind {
				s = append(s, ms(rc.Done-rc.Sent))
			}
		}
		return s
	}
	simMS := median(service(kindSimulate))
	m["daemon.simulate_ms_p50"] = simMS
	m["daemon.sweep_ms_p50"] = median(service(kindSweep))
	m["daemon.fleet_ms_p50"] = median(service(kindFleet))
	m["daemon.results_ms_p50"] = median(d.polls)
	m["daemon.handler_us_p50"] = median(handlerUS)
	m["daemon.http_us_p50"] = simMS*1e3 - median(handlerUS)
	fastN := 0
	for _, i := range sims {
		if d.fast[i] {
			fastN++
		}
	}
	if len(sims) > 0 {
		m["daemon.fast_ratio"] = float64(fastN) / float64(len(sims))
	}
	m["daemon.shed"] = promAfter["greengpu_daemon_shed_total"] - promBefore["greengpu_daemon_shed_total"]
	m["jobstore.accept_ms_p50"] = median(service(kindAsync))
	m["jobstore.appends"] = promAfter["greengpu_jobstore_appends_total"] - promBefore["greengpu_jobstore_appends_total"]
	var done []float64
	for i, rc := range recs {
		if plan.Reqs[i].Kind == kindAsync && d.ok[i] {
			done = append(done, ms(d.jobDone[i].Sub(d.start)-rc.Due))
		}
	}
	m["daemon.job_done_ms_p50"] = median(done)
	m["telemetry.scrape_ms_p50"] = median(service(kindMetrics))
	var sb []float64
	for i := range recs {
		if plan.Reqs[i].Kind == kindMetrics {
			sb = append(sb, float64(d.scrapeB[i]))
		}
	}
	m["telemetry.scrape_bytes"] = median(sb)
	var late []float64
	for _, rc := range recs {
		late = append(late, ms(rc.Dispatched-rc.Due))
	}
	if m["loadgen.late_ms_p99"], err = percentile(late, 990); err != nil {
		return outcome{}, err
	}
	m["loadgen.backlog_max"] = float64(backlog)
	m["loadgen.sent"] = float64(n)
	fillCounters(m, snapshotCounters(remoteCounters(promBefore)), snapshotCounters(remoteCounters(promAfter)),
		n, wall.Seconds(), host.NProc)
	st := statsAfter.Sub(statsBefore)
	m["runcache.hits"] = float64(st.Hits) / float64(n)
	m["runcache.misses"] = float64(st.Misses) / float64(n)
	m["runcache.sf_waits"] = float64(st.Waits) / float64(n)
	if st.Hits+st.Misses > 0 {
		m["runcache.hit_ratio"] = float64(st.Hits) / float64(st.Hits+st.Misses)
	}
	g.fill(m)
	m["trace.overhead_ratio"] = median(latTraced) / median(latUntraced)
	if err := tails(latUntraced, m); err != nil {
		return outcome{}, err
	}
	path, err := writeSpans(o, host, d.tr)
	if err != nil {
		return outcome{}, err
	}
	fmt.Fprintln(os.Stderr, "perfbench: spans written to", path)
	return out, nil
}
