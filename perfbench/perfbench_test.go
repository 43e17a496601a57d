package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"distcfd"
	"distcfd/internal/core"
	"distcfd/internal/relation"
)

// small returns the named workload shrunk to test size.
func small(t *testing.T, name string) spec {
	t.Helper()
	sp, ok := specByName(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	sp.tuples = 3000
	return sp
}

func smallDeployment(t *testing.T) (*deployment, *instance) {
	t.Helper()
	sp := small(t, "detect-mem")
	in, err := generate(sp, 7)
	if err != nil {
		t.Fatal(err)
	}
	frags, err := in.fragments()
	if err != nil {
		t.Fatal(err)
	}
	dep, err := deploy(context.Background(), sp, in, frags, t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dep.close() })
	return dep, in
}

// TestGateFiresOnWrongFingerprint: an op whose violations, shipment
// count or modeled time differ from the warm-up's fails the gate, and
// a result missing a violation pattern fails the reference check.
func TestGateFiresOnWrongFingerprint(t *testing.T) {
	dep, in := smallDeployment(t)
	if err := in.ref.check(dep.warm); err != nil {
		t.Fatalf("warm-up against reference: %v", err)
	}
	gate := fingerprintGate{want: fingerprintOf(dep.warm)}
	res, err := dep.det.Detect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := gate.check(res); err != nil {
		t.Fatalf("correct op failed the gate: %v", err)
	}

	shipped := *res
	shipped.ShippedTuples++
	modeled := *res
	modeled.ModeledTime *= 1.0000001
	dropped := *res
	dropped.PerCFD = append([]*relation.Relation(nil), res.PerCFD...)
	victim := -1
	for i, r := range dropped.PerCFD {
		if r.Len() > 0 {
			victim = i
			break
		}
	}
	if victim < 0 {
		t.Fatal("instance has no violations to drop")
	}
	smaller := relation.New(res.PerCFD[victim].Schema())
	for _, tu := range res.PerCFD[victim].Tuples()[1:] {
		smaller.MustAppend(tu)
	}
	dropped.PerCFD[victim] = smaller

	for name, wrong := range map[string]*distcfd.Result{"shipped": &shipped, "modeled": &modeled, "violations": &dropped} {
		if err := gate.check(wrong); err == nil || !strings.Contains(err.Error(), "fingerprint mismatch") {
			t.Errorf("%s: gate accepted a wrong fingerprint (err %v)", name, err)
		}
	}
	if err := in.ref.check(&dropped); err == nil {
		t.Error("reference check accepted a result missing a violation pattern")
	}
}

// TestLeakCheck: a site left holding a deposit buffer fails the check.
func TestLeakCheck(t *testing.T) {
	dep, in := smallDeployment(t)
	if err := dep.leaks(); err != nil {
		t.Fatalf("fresh deployment: %v", err)
	}
	batch := relation.New(in.data.Schema())
	batch.MustAppend(in.data.Tuple(0))
	if err := dep.sites[1].Deposit(context.Background(), "stray-task", batch, ""); err != nil {
		t.Fatal(err)
	}
	if err := dep.leaks(); err == nil || !strings.Contains(err.Error(), "site 1") {
		t.Fatalf("leak check missed a pending deposit: %v", err)
	}
}

// TestTracedSiteForwardsOptionalMethods: the decorator exposes the
// optional methods remote.ServeAPIContext and the admission layer
// type-assert for, and they reach the wrapped site.
func TestTracedSiteForwardsOptionalMethods(t *testing.T) {
	dep, _ := smallDeployment(t)
	inner := dep.sites[0].(*core.Site)
	var api core.SiteAPI = newTracedSite(inner, newRecorder(), sideServer)
	p, ok := api.(interface {
		DetectParallelism() int
		SetDetectParallelism(int)
	})
	if !ok {
		t.Fatal("tracedSite hides the parallelism knobs")
	}
	p.SetDetectParallelism(3)
	if inner.DetectParallelism() != 3 || p.DetectParallelism() != 3 {
		t.Fatalf("SetDetectParallelism not forwarded: inner %d, wrapper %d", inner.DetectParallelism(), p.DetectParallelism())
	}
	if _, ok := api.(interface{ PendingDeposits() int }); !ok {
		t.Error("tracedSite hides PendingDeposits")
	}
	if _, ok := api.(interface{ Close() error }); !ok {
		t.Error("tracedSite hides Close")
	}
}

// TestDriverSelfTime: self time is the op span minus the union of its
// children, overlaps counted once.
func TestDriverSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Side: sideOp, Start: 0, End: 100},
		{ID: 2, Parent: 1, Side: sideDriver, Call: callDetectAssignedSet, Start: 10, End: 30},
		{ID: 3, Parent: 1, Side: sideDriver, Call: callDeposit, Start: 20, End: 50},
		{ID: 4, Parent: 1, Side: sideDriver, Call: callDetectTask, Start: 60, End: 70},
		{ID: 5, Side: sideServer, Call: callDetectTask, Start: 61, End: 69},
	}
	got := layerFigures(spans)
	ms := float64(time.Millisecond)
	if want := 50 / ms; got["core.driver_self_ms_per_op"].Value != want {
		t.Errorf("driver self = %v ms, want %v", got["core.driver_self_ms_per_op"].Value, want)
	}
	if got["site.detect.calls_per_op"].Value != 2 || got["core.site_calls_per_op"].Value != 3 || got["remote.rpcs_per_op"].Value != 1 {
		t.Errorf("call counts wrong: %v", got)
	}
	if want := (60 - 8) / ms; got["remote.overhead_ms_per_op"].Value != want {
		t.Errorf("remote overhead = %v, want %v", got["remote.overhead_ms_per_op"].Value, want)
	}
}

// TestWorkloadsEndToEnd runs every workload, untraced and traced, at
// test size: each must pass its gates and report every metric that
// BENCHMARK.json names.
func TestWorkloadsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	var declared struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []benchMetric           `json:"end_to_end"`
		PerLayer  []benchMetric           `json:"per_layer"`
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &declared); err != nil {
		t.Fatal(err)
	}
	if len(declared.Workloads) != len(specs) {
		t.Errorf("BENCHMARK.json declares %d workloads, the benchmark runs %d", len(declared.Workloads), len(specs))
	}
	for _, w := range declared.Workloads {
		if _, ok := specByName(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %q is not run", w.Name)
		}
	}
	for _, sp := range specs {
		t.Run(sp.name, func(t *testing.T) {
			sp := small(t, sp.name)
			b := &bench{sp: sp, seed: 3, budget: 400 * time.Millisecond, dir: t.TempDir()}
			rep, err := b.untraced()
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Fatalf("untraced run: correct=%v attempted=%d failed=%d", rep.Correct, rep.Attempted, rep.Failed)
			}
			matchDeclared(t, "end_to_end", declared.EndToEnd, rep, true)
			tr, err := b.traced(t.TempDir() + "/spans.jsonl")
			if err != nil {
				t.Fatal(err)
			}
			if !tr.Correct {
				t.Fatalf("traced run failed: %+v", tr)
			}
			matchDeclared(t, "per_layer", declared.PerLayer, tr, false)
			if sp.remote && tr.Metrics["remote.rpcs_per_op"].Value == 0 {
				t.Error("remote workload recorded no server-side spans")
			}
		})
	}
}

type benchMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// matchDeclared checks that a report carries exactly the metrics a
// BENCHMARK.json section declares, with the declared units; positive
// also requires every value to be above zero.
func matchDeclared(t *testing.T, section string, declared []benchMetric, rep *report, positive bool) {
	t.Helper()
	if len(rep.Metrics) != len(declared) {
		t.Errorf("%s: report has %d metrics, BENCHMARK.json declares %d", section, len(rep.Metrics), len(declared))
	}
	for _, d := range declared {
		got, ok := rep.Metrics[d.Name]
		switch {
		case !ok:
			t.Errorf("%s: report lacks %s", section, d.Name)
		case got.Unit != d.Unit:
			t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", section, d.Name, got.Unit, d.Unit)
		case positive && got.Value <= 0:
			t.Errorf("%s: %s = %v, want > 0", section, d.Name, got.Value)
		}
	}
}

// TestPercentile: the order statistic at rank ceil(p·n), with failed
// ops ranked above every success.
func TestPercentile(t *testing.T) {
	l := loopResult{}
	for _, ms := range []int{5, 1, 4, 2, 3, 9, 8, 7, 6, 10} {
		l.lat = append(l.lat, time.Duration(ms)*time.Millisecond)
	}
	if got := l.percentile(0.5); got != 5 {
		t.Errorf("p50 = %v, want 5", got)
	}
	if got := l.percentile(0.9); got != 9 {
		t.Errorf("p90 = %v, want 9", got)
	}
	l.failed = 2
	if got := l.percentile(0.5); got != 6 {
		t.Errorf("p50 with 2 of 12 failed = %v, want 6", got)
	}
	if got := l.percentile(0.9); !math.IsInf(got, 1) {
		t.Errorf("p90 with 2 of 12 failed = %v, want +Inf", got)
	}
}
