package main

import (
	"reflect"
	"testing"

	"greengpu/internal/experiments"
)

func testEnv(t *testing.T) *experiments.Env {
	t.Helper()
	env, err := experiments.NewEnv()
	if err != nil {
		t.Fatal(err)
	}
	return env
}

func TestDesignSpecFollowsSeed(t *testing.T) {
	env := testEnv(t)
	a, b := genDesign(7, env), genDesign(7, env)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("seed 7 generated two different design studies")
	}
	if reflect.DeepEqual(a, genDesign(8, env)) {
		t.Fatal("seeds 7 and 8 generated the same design study")
	}
	for _, p := range a.Static {
		if p.Ratio <= 0 || p.Ratio >= 1 {
			t.Errorf("static point ratio %v outside (0,1)", p.Ratio)
		}
	}
}

func TestDaemonRequestsFollowSeed(t *testing.T) {
	env := testEnv(t)
	a, b := genDaemon(7, 100, 4, env), genDaemon(7, 100, 4, env)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("seed 7 generated two different request sequences")
	}
	if reflect.DeepEqual(a.Reqs, genDaemon(8, 100, 4, env).Reqs) {
		t.Fatal("seeds 7 and 8 generated the same request sequence")
	}
	if len(a.Reqs) != 400 || len(a.Due) != 400 {
		t.Fatalf("%d requests, %d due times; want 400 of each", len(a.Reqs), len(a.Due))
	}
	// Cold simulate keys are never repeated, so the cache hit ratio stays
	// flat instead of climbing as the cache fills.
	seen := map[string]bool{}
	kinds := map[reqKind]int{}
	for _, r := range a.Reqs {
		kinds[r.Kind]++
		if r.Kind != kindSimulate || r.Hot >= 0 {
			continue
		}
		if seen[string(r.Body)] {
			t.Errorf("cold simulate request %s repeats", r.Body)
		}
		seen[string(r.Body)] = true
	}
	for k := kindSimulate; k <= kindStats; k++ {
		if kinds[k] == 0 {
			t.Errorf("no %s request in the mix", routes[k])
		}
	}
}
