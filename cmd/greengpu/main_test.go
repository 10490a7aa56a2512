package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"greengpu/internal/core"
	"greengpu/internal/division"
	"greengpu/internal/experiments"
)

var modes = map[string]core.Mode{
	"baseline":    core.Baseline,
	"freqscaling": core.FreqScaling,
	"division":    core.Division,
	"greengpu":    core.Holistic,
	"holistic":    core.Holistic,
}

// flavours are the configuration flags every mode is checked under, with
// the config change each one makes.
var flavours = []struct {
	args  []string
	apply func(*core.Config)
}{
	{nil, func(*core.Config) {}},
	{[]string{"-fixed8"}, func(c *core.Config) { c.Fixed8Scaler = true }},
	{[]string{"-divider", "qilin"}, func(c *core.Config) {
		c.DivisionPolicy = division.NewQilin(division.DefaultQilinConfig())
	}},
}

// direct runs the configuration the flags select through core.Run on a
// fresh machine — the path the command took before it used the shared
// evaluator.
func direct(t *testing.T, env *experiments.Env, name string, cfg core.Config) *core.Result {
	t.Helper()
	p, err := env.Profile(name)
	if err != nil {
		t.Fatal(err)
	}
	r, err := core.Run(env.Machine(), p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func runArgs(t *testing.T, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatalf("run %q: %v", args, err)
	}
	return out.String()
}

// TestJSONMatchesCoreRun: -json output for every mode and flavour is the
// JSON of core.Run on a fresh machine under the same configuration.
func TestJSONMatchesCoreRun(t *testing.T) {
	env, err := experiments.NewEnv()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"kmeans", "streamcluster"} {
		for mode, m := range modes {
			for _, f := range flavours {
				args := append([]string{"-workload", name, "-mode", mode, "-json", "-iterations", "6"}, f.args...)
				got := runArgs(t, args...)
				cfg := core.DefaultConfig(m)
				cfg.Iterations = 6
				f.apply(&cfg)
				var want bytes.Buffer
				if err := emitJSON(&want, direct(t, env, name, cfg)); err != nil {
					t.Fatal(err)
				}
				if got != want.String() {
					t.Errorf("%q: JSON differs from core.Run\n got: %s\nwant: %s", args, got, want.String())
				}
			}
		}
	}
}

// TestCompareLine: the -compare line measures the run against the
// best-performance baseline exactly as core.Run results on fresh machines
// do, and is omitted for the baseline itself.
func TestCompareLine(t *testing.T) {
	env, err := experiments.NewEnv()
	if err != nil {
		t.Fatal(err)
	}
	base := direct(t, env, "hotspot", core.DefaultConfig(core.Baseline))
	for mode, m := range modes {
		for _, f := range flavours {
			args := append([]string{"-workload", "hotspot", "-mode", mode}, f.args...)
			out := runArgs(t, args...)
			line := ""
			for _, l := range strings.Split(out, "\n") {
				if strings.HasPrefix(l, "vs default ") {
					line = l
				}
			}
			if m == core.Baseline {
				if line != "" {
					t.Errorf("%q: baseline printed a compare line %q", args, line)
				}
				continue
			}
			cfg := core.DefaultConfig(m)
			f.apply(&cfg)
			res := direct(t, env, "hotspot", cfg)
			want := fmt.Sprintf("vs default %.2f%% energy saving, %+.2f%% execution time",
				(1-float64(res.Energy)/float64(base.Energy))*100,
				(float64(res.TotalTime)/float64(base.TotalTime)-1)*100)
			if line != want {
				t.Errorf("%q: compare line %q, want %q", args, line, want)
			}
		}
	}
}

func TestErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-mode", "nope"}, `unknown mode "nope"`},
		{[]string{"-workload", "nope"}, `workload: no profile named "nope"`},
		{[]string{"-divider", "nope"}, `unknown divider "nope"`},
	} {
		var out bytes.Buffer
		err := run(tc.args, &out)
		if err == nil || err.Error() != tc.want {
			t.Errorf("%q: error %v, want %q", tc.args, err, tc.want)
		}
		if out.Len() != 0 {
			t.Errorf("%q: wrote %q before failing", tc.args, out.String())
		}
	}
}
