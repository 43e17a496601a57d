// Command perfbench is the repository benchmark: closed-loop serving
// workloads against the public distcfd API, run in one process, with
// every op's output checked. It prints the end-to-end metrics of one
// workload (or, with --trace 1, the per-layer metrics of a traced run)
// and ends with one JSON line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it from the repository root with perfbench/run.sh, which builds
// it first:
//
//	bash perfbench/run.sh --workload detect-mem --seed 1 --seconds 10 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"
)

// setupReps is how many times a --trace 0 run sets its cluster up;
// setup_s is the median.
const setupReps = 5

// workDir, relative to the repository root the benchmark runs from,
// holds each run's store directories (removed at exit) and the span
// logs of traced runs.
var workDir = filepath.Join(".bench_build", "perfbench")

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "", "workload to run: detect-mem or detect-rpc-store")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 10, "measured seconds")
		trace   = flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	)
	flag.Parse()
	sp, ok := specByName(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (detect-mem, detect-rpc-store), --seconds > 0 and --trace 0|1\n")
		return 2
	}
	runDir := filepath.Join(workDir, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(runDir)

	b := &bench{sp: sp, seed: *seed, budget: time.Duration(*seconds * float64(time.Second)), dir: runDir}
	var rep *report
	var err error
	if *trace == 1 {
		rep, err = b.traced(filepath.Join(workDir, fmt.Sprintf("spans-%s-seed%d.jsonl", sp.name, *seed)))
	} else {
		rep, err = b.untraced()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", sp.name, err)
		return 1
	}
	st, _ := json.Marshal(makeStamp(runDir))
	fmt.Printf("stamp %s\n", st)
	if err := rep.print(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	if !rep.Correct {
		return 1
	}
	return 0
}

// bench runs one workload.
type bench struct {
	sp     spec
	seed   int64
	budget time.Duration
	dir    string
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's final output line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	notes []string // human-readable lines printed before the JSON
}

func (r *report) set(name string, v float64, unit string) {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		v = math.MaxFloat64 // failed ops miss every limit; JSON has no infinity
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *report) print() error {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range r.notes {
		fmt.Println(n)
	}
	for _, n := range names {
		fmt.Printf("%-36s %18.6f %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	out, err := json.Marshal(r)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// loopResult is what one timed loop measured.
type loopResult struct {
	lat      []time.Duration // successful ops
	failed   int
	active   time.Duration // measured time, pauses excluded
	shipped  int64         // summed shipped bytes of successful ops
	failures []string      // first few failure reasons
}

func (l *loopResult) attempted() int { return len(l.lat) + l.failed }

// percentile returns the p-quantile of the op latencies in
// milliseconds: the order statistic at rank ceil(p·n). Failed ops count
// as exceeding every limit, so they rank above every success.
func (l *loopResult) percentile(p float64) float64 {
	n := l.attempted()
	k := int(math.Ceil(p*float64(n))) - 1
	if len(l.lat) == 0 || k >= len(l.lat) {
		return math.Inf(1)
	}
	ms := make([]float64, 0, n)
	for _, d := range l.lat {
		ms = append(ms, float64(d)/float64(time.Millisecond))
	}
	sort.Float64s(ms)
	return ms[max(k, 0)]
}

func (l *loopResult) throughput() float64 {
	return float64(len(l.lat)) / l.active.Seconds()
}

func (l *loopResult) shippedPerOp() float64 {
	return float64(l.shipped) / float64(max(len(l.lat), 1))
}

func (l *loopResult) fail(reason string) {
	l.failed++
	if len(l.failures) < 5 {
		l.failures = append(l.failures, reason)
	}
}

// add folds another stretch's result into l.
func (l *loopResult) add(o loopResult) {
	l.lat = append(l.lat, o.lat...)
	l.failed += o.failed
	l.active += o.active
	l.shipped += o.shipped
	l.failures = append(l.failures, o.failures...)
}

// meter is what a timed loop switches on while it measures and off
// while it pauses: the span recorder of a traced run and the
// outside-in counters. Either may be nil.
type meter struct {
	rec      *recorder
	counters *counterAcc
}

func (m meter) resume() {
	if m.rec != nil {
		m.rec.enabled.Store(true)
	}
	if m.counters != nil {
		m.counters.resume()
	}
}

func (m meter) pause() {
	if m.rec != nil {
		m.rec.enabled.Store(false)
	}
	if m.counters != nil {
		m.counters.pause()
	}
}

// deploy sets the workload up once and checks the warm-up result
// against the reference. Partitioning is input generation and happens
// before the set-up clock starts.
func (b *bench) deploy(ctx context.Context, in *instance, rec *recorder) (*deployment, error) {
	frags, err := in.fragments()
	if err != nil {
		return nil, err
	}
	dep, err := deploy(ctx, b.sp, in, frags, b.dir, rec)
	if err != nil {
		return nil, err
	}
	if err := in.ref.check(dep.warm); err != nil {
		dep.close()
		return nil, fmt.Errorf("set-up gate: warm-up against reference: %w", err)
	}
	return dep, nil
}

// untraced measures the end-to-end metrics. The cluster is set up
// setupReps times; the last deployment serves the timed loop, and the
// peak-RSS mark is reset just before it is built.
func (b *bench) untraced() (*report, error) {
	ctx := context.Background()
	in, err := generate(b.sp, b.seed)
	if err != nil {
		return nil, err
	}
	var setups []float64
	var dep *deployment
	for r := 0; r < setupReps; r++ {
		// Every set-up starts from a collected heap, so no rep pays for
		// the garbage of the one before.
		runtime.GC()
		if r == setupReps-1 {
			debug.FreeOSMemory()
			resetPeakRSS()
		}
		if dep, err = b.deploy(ctx, in, nil); err != nil {
			return nil, err
		}
		setups = append(setups, dep.setupTime.Seconds())
		if r < setupReps-1 {
			if err := dep.close(); err != nil {
				return nil, err
			}
		}
	}
	runtime.GC()
	lanes := b.loop(ctx, dep, []meter{{}})
	peak := vmHWMBytes()
	loop := &lanes[0]
	rep := b.finish(dep, lanes)
	sort.Float64s(setups)
	rep.set("latency_ms_p50", loop.percentile(0.5), "ms")
	rep.set("latency_ms_p90", loop.percentile(0.9), "ms")
	rep.set("throughput_ops_s", loop.throughput(), "ops/s")
	rep.set("setup_s", setups[len(setups)/2], "s")
	rep.set("peak_rss_mb", peak/(1<<20), "MiB")
	rep.set("shipped_bytes_per_op", loop.shippedPerOp(), "bytes")
	rep.notes = append(rep.notes,
		fmt.Sprintf("workload %s: %d CUST tuples on %d sites, %d closed-loop client(s); %d ops (%d failed) in %.2fs measured; setup_s samples %v",
			b.sp.name, b.sp.tuples, numSites, clients, loop.attempted(), loop.failed, loop.active.Seconds(), setups),
		fmt.Sprintf("%-36s %18.6f ratio (not in the JSON metrics: it is 0 whenever the run is correct; see failed/attempted)",
			"failed_ops_share", float64(loop.failed)/float64(max(loop.attempted(), 1))))
	return rep, nil
}

// traced measures the per-layer metrics on one deployment with the span
// decorator installed. Its timed loop alternates between two lanes: an
// untraced one (recorder off; outside-in counters and the untraced p50)
// and a traced one (spans at the SiteAPI boundary). Interleaving the
// lanes on the same deployment keeps host drift out of
// trace.overhead_ms_p50.
func (b *bench) traced(spanPath string) (*report, error) {
	ctx := context.Background()
	in, err := generate(b.sp, b.seed)
	if err != nil {
		return nil, err
	}
	rec := newRecorder()
	dep, err := b.deploy(ctx, in, rec)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	counters := newCounterAcc(dep)
	lanes := b.loop(ctx, dep, []meter{{counters: counters}, {rec: rec}})
	plain, tl := &lanes[0], &lanes[1]
	openTime, storeStats := dep.openTime, dep.storeStats
	rep := b.finish(dep, lanes)
	spans := rec.snapshot()
	if err := rec.writeJSONL(spanPath); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}

	outside := counters.figures(plain.attempted())
	for k, m := range outside {
		rep.set(k, m.Value, m.Unit)
	}
	for k, m := range layerFigures(spans) {
		rep.set(k, m.Value, m.Unit)
	}
	rep.set("colstore.open_s", openTime.Seconds(), "s")
	ratio := 0.0
	if storeStats.RawBytes > 0 {
		ratio = float64(storeStats.BytesOnDisk) / float64(storeStats.RawBytes)
	}
	rep.set("colstore.disk_bytes_per_raw_byte", ratio, "ratio")
	perShipped := 0.0
	if s := plain.shippedPerOp(); s > 0 {
		perShipped = outside["remote.tcp_bytes_per_op"].Value / s
	}
	rep.set("remote.tcp_bytes_per_shipped_byte", perShipped, "ratio")
	rep.set("trace.overhead_ms_p50", tl.percentile(0.5)-plain.percentile(0.5), "ms")
	rep.notes = append(rep.notes,
		fmt.Sprintf("workload %s traced: %d untraced ops in %.2fs, %d traced ops in %.2fs; %d spans written to %s",
			b.sp.name, plain.attempted(), plain.active.Seconds(), tl.attempted(), tl.active.Seconds(), len(spans), spanPath))
	return rep, nil
}

// finish runs the leak check, tears the deployment down and opens the
// report over every lane's ops. A site left holding deposits, or a
// failed teardown, counts as a failed op.
func (b *bench) finish(dep *deployment, lanes []loopResult) *report {
	rep := &report{Metrics: make(map[string]metric)}
	var failures []string
	for _, l := range lanes {
		rep.Attempted += l.attempted()
		rep.Failed += l.failed
		failures = append(failures, l.failures...)
	}
	if err := dep.leaks(); err != nil {
		rep.Failed++
		failures = append(failures, "leak check: "+err.Error())
	}
	if err := dep.close(); err != nil {
		rep.Failed++
		failures = append(failures, "teardown: "+err.Error())
	}
	rep.Attempted = max(rep.Attempted, rep.Failed, 1)
	rep.Correct = rep.Failed == 0
	for _, f := range failures {
		fmt.Fprintf(os.Stderr, "perfbench: %s: failed: %s\n", b.sp.name, f)
	}
	return rep
}

// tracedStretches is how many stretches of the budget a loop with two
// lanes alternates over.
const tracedStretches = 8

// laneOf returns the lane that stretch k of a loop over n lanes
// measures: with two lanes the order is ABBA ABBA …, so neither lane
// runs systematically earlier than the other.
func laneOf(k, n int) int {
	if n == 1 {
		return 0
	}
	return (k + 1) / 2 % 2
}

// loop runs the workload's timed loop, alternating its stretches over
// one lane per meter, and returns each lane's result.
func (b *bench) loop(ctx context.Context, dep *deployment, meters []meter) []loopResult {
	gate := fingerprintGate{want: fingerprintOf(dep.warm)}
	lanes := make([]loopResult, len(meters))
	stretches := 1
	if len(meters) > 1 {
		stretches = tracedStretches
	}
	for k := 0; k < stretches; k++ {
		l := laneOf(k, len(meters))
		lanes[l].add(b.stretch(ctx, dep, gate, meters[l], b.budget/time.Duration(stretches)))
	}
	return lanes
}

// stretch runs the closed loop for budget: each client issues its next
// Detect as soon as the previous one returns, and checks every result's
// fingerprint against the warm-up's.
func (b *bench) stretch(ctx context.Context, dep *deployment, gate fingerprintGate, m meter, budget time.Duration) loopResult {
	results := make([]loopResult, clients)
	var wg sync.WaitGroup
	m.resume()
	start := time.Now()
	for c := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res := &results[c]
			for time.Since(start) < budget {
				opCtx, end := m.rec.startOp(ctx)
				t0 := time.Now()
				out, err := dep.det.Detect(opCtx)
				lat := time.Since(t0)
				end(err)
				if err == nil {
					err = gate.check(out)
				}
				if err != nil {
					res.fail(err.Error())
					continue
				}
				res.lat = append(res.lat, lat)
				res.shipped += out.Shipment.TotalBytes
			}
		}()
	}
	wg.Wait()
	all := loopResult{active: time.Since(start)}
	m.pause()
	for _, r := range results {
		all.add(r)
	}
	return all
}
