package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"distcfd/internal/cfd"
	"distcfd/internal/core"
	"distcfd/internal/mining"
	"distcfd/internal/relation"
)

// Spans are recorded at the one seam every layer crosses: the
// core.SiteAPI boundary. A traced run installs tracedSite on the driver
// side of the cluster (Cluster.WrapSites) and, when sites are served
// over loopback TCP, around the site handed to remote.ServeAPIContext,
// so a driver-side span minus the matching server-side spans is the
// time spent in the remote layer. Each workload op opens an op span
// whose ID rides the context; site calls that carry that context name
// it as their parent.

// side says where a span was recorded.
type side uint8

const (
	sideOp     side = iota // the workload op itself
	sideDriver             // a site call as the driver made it
	sideServer             // a site call as the remote server ran it
)

var sideNames = [...]string{sideOp: "op", sideDriver: "driver", sideServer: "server"}

// call names the SiteAPI method a span timed.
type call uint8

const (
	callOp call = iota // not a site call: the op span
	callNumTuples
	callPredicate
	callSigmaStats
	callExtractBlock
	callExtractMatching
	callExtractBlocksBatch
	callDeposit
	callAbort
	callCancel
	callDetectTask
	callDetectAssignedSingle
	callDetectAssignedSet
	callDetectConstantsLocal
	callMineFrequent
	callPing
	callApplyDelta
	callExtractDeltaBlocks
	callFoldDetect
	callDropSession
)

var callNames = [...]string{
	callOp: "op", callNumTuples: "NumTuples", callPredicate: "Predicate",
	callSigmaStats: "SigmaStats", callExtractBlock: "ExtractBlock",
	callExtractMatching: "ExtractMatching", callExtractBlocksBatch: "ExtractBlocksBatch",
	callDeposit: "Deposit", callAbort: "Abort", callCancel: "Cancel",
	callDetectTask: "DetectTask", callDetectAssignedSingle: "DetectAssignedSingle",
	callDetectAssignedSet: "DetectAssignedSet", callDetectConstantsLocal: "DetectConstantsLocal",
	callMineFrequent: "MineFrequent", callPing: "Ping", callApplyDelta: "ApplyDelta",
	callExtractDeltaBlocks: "ExtractDeltaBlocks", callFoldDetect: "FoldDetect",
	callDropSession: "DropSession",
}

// callPhases maps each site call to the phase its per-layer metrics
// report under.
var callPhases = [...]string{
	callOp: "", callSigmaStats: "stats",
	callExtractBlock: "extract", callExtractMatching: "extract", callExtractBlocksBatch: "extract",
	callDeposit:    "deposit",
	callDetectTask: "detect", callDetectAssignedSingle: "detect", callDetectAssignedSet: "detect",
	callDetectConstantsLocal: "constants",
	callApplyDelta:           "apply", callExtractDeltaBlocks: "delta_extract", callFoldDetect: "fold",
	callNumTuples: "control", callPredicate: "control", callCancel: "control", callAbort: "control",
	callDropSession: "control", callPing: "control", callMineFrequent: "control",
}

// phases lists the reported phases in report order. apply,
// delta_extract and fold label spans in the log but are not reported:
// no workload serves delta rounds.
var phases = []string{"stats", "extract", "deposit", "detect", "constants", "control"}

// span is one recorded interval. It holds no pointers, so a buffer of
// them costs the GC nothing to scan.
type span struct {
	ID, Parent int64
	Start, End int64 // nanoseconds since the recorder's epoch
	Site       int32
	Tuples     int32 // tuples of a deposited batch
	Call       call
	Side       side
	Err        bool
}

func (s *span) dur() int64 { return s.End - s.Start }

// spanRecord is a span as written to the JSON-lines log.
type spanRecord struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Side   string `json:"side"`
	Site   int32  `json:"site"`
	Method string `json:"method"`
	Phase  string `json:"phase,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Err    bool   `json:"err,omitempty"`
	Tuples int32  `json:"tuples,omitempty"`
}

// recorder keeps spans in memory while enabled. Spans are dropped while
// it is disabled, so set-up, warm-up and the untraced lane never reach
// the per-op figures.
//
// The span buffer is allocated up front, so a traced run's untraced and
// traced stretches run with the same live heap.
type recorder struct {
	epoch   time.Time
	enabled atomic.Bool
	nextID  atomic.Int64

	mu    sync.Mutex
	spans []span
}

// spanCapacity holds the spans of a 50 s traced run at about twice the
// op rate of either workload today (~190K spans on detect-mem, ~140K on
// detect-rpc-store); a run past it grows the buffer.
const spanCapacity = 400_000

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), spans: make([]span, 0, spanCapacity)}
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

func (r *recorder) add(s span) {
	if !r.enabled.Load() {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

type opKey struct{}

// startOp opens an op span; the returned context carries its ID to the
// site calls the op makes, and end closes it.
func (r *recorder) startOp(ctx context.Context) (context.Context, func(err error)) {
	if r == nil {
		return ctx, func(error) {}
	}
	id := r.nextID.Add(1)
	start := r.now()
	return context.WithValue(ctx, opKey{}, id), func(err error) {
		r.add(span{ID: id, Side: sideOp, Site: -1, Call: callOp, Start: start, End: r.now(), Err: err != nil})
	}
}

// snapshot returns the recorded spans.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// writeJSONL writes every recorded span as one JSON object per line.
func (r *recorder) writeJSONL(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.snapshot() {
		rec := spanRecord{
			ID: s.ID, Parent: s.Parent, Side: sideNames[s.Side], Site: s.Site,
			Method: callNames[s.Call], Phase: callPhases[s.Call], Start: s.Start, End: s.End,
			Err: s.Err, Tuples: s.Tuples,
		}
		if err := enc.Encode(&rec); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedSite is the span-recording SiteAPI decorator. Besides the
// interface it forwards the optional methods the rest of the system
// type-asserts for — the intra-unit parallelism knobs (read by
// remote.ServeAPIContext), PendingDeposits and Close — so a traced run
// executes the same code as an untraced one.
type tracedSite struct {
	inner core.SiteAPI
	rec   *recorder
	side  side
}

var _ core.SiteAPI = (*tracedSite)(nil)

func newTracedSite(inner core.SiteAPI, rec *recorder, sd side) *tracedSite {
	return &tracedSite{inner: inner, rec: rec, side: sd}
}

// begin times one site call. ctx may be nil for the context-free
// methods; their spans carry no parent.
func (t *tracedSite) begin(ctx context.Context, c call) func(err error, tuples int) {
	if !t.rec.enabled.Load() {
		return func(error, int) {}
	}
	var parent int64
	if ctx != nil {
		parent, _ = ctx.Value(opKey{}).(int64)
	}
	start := t.rec.now()
	return func(err error, tuples int) {
		t.rec.add(span{
			ID: t.rec.nextID.Add(1), Parent: parent, Start: start, End: t.rec.now(),
			Site: int32(t.inner.ID()), Tuples: int32(tuples), Call: c, Side: t.side,
			Err: err != nil,
		})
	}
}

func (t *tracedSite) ID() int { return t.inner.ID() }

func (t *tracedSite) NumTuples() (int, error) {
	done := t.begin(nil, callNumTuples)
	n, err := t.inner.NumTuples()
	done(err, 0)
	return n, err
}

func (t *tracedSite) Predicate() (relation.Predicate, error) {
	done := t.begin(nil, callPredicate)
	p, err := t.inner.Predicate()
	done(err, 0)
	return p, err
}

func (t *tracedSite) SigmaStats(ctx context.Context, spec *core.BlockSpec) ([]int, error) {
	done := t.begin(ctx, callSigmaStats)
	out, err := t.inner.SigmaStats(ctx, spec)
	done(err, 0)
	return out, err
}

func (t *tracedSite) ExtractBlock(ctx context.Context, spec *core.BlockSpec, l int, attrs []string) (*relation.Relation, error) {
	done := t.begin(ctx, callExtractBlock)
	out, err := t.inner.ExtractBlock(ctx, spec, l, attrs)
	done(err, 0)
	return out, err
}

func (t *tracedSite) ExtractMatching(ctx context.Context, spec *core.BlockSpec, attrs []string) (*relation.Relation, error) {
	done := t.begin(ctx, callExtractMatching)
	out, err := t.inner.ExtractMatching(ctx, spec, attrs)
	done(err, 0)
	return out, err
}

func (t *tracedSite) ExtractBlocksBatch(ctx context.Context, spec *core.BlockSpec, attrs []string, wanted []int) (map[int]*relation.Relation, error) {
	done := t.begin(ctx, callExtractBlocksBatch)
	out, err := t.inner.ExtractBlocksBatch(ctx, spec, attrs, wanted)
	done(err, 0)
	return out, err
}

func (t *tracedSite) Deposit(ctx context.Context, task string, batch *relation.Relation, nonce string) error {
	done := t.begin(ctx, callDeposit)
	err := t.inner.Deposit(ctx, task, batch, nonce)
	n := 0
	if batch != nil {
		n = batch.Len()
	}
	done(err, n)
	return err
}

func (t *tracedSite) Abort(taskKey string) error {
	done := t.begin(nil, callAbort)
	err := t.inner.Abort(taskKey)
	done(err, 0)
	return err
}

func (t *tracedSite) Cancel(taskKey string) error {
	done := t.begin(nil, callCancel)
	err := t.inner.Cancel(taskKey)
	done(err, 0)
	return err
}

func (t *tracedSite) DetectTask(ctx context.Context, task string, local core.LocalInput, cfds []*cfd.CFD) ([]*relation.Relation, error) {
	done := t.begin(ctx, callDetectTask)
	out, err := t.inner.DetectTask(ctx, task, local, cfds)
	done(err, 0)
	return out, err
}

func (t *tracedSite) DetectAssignedSingle(ctx context.Context, taskPrefix string, spec *core.BlockSpec, blocks []int, c *cfd.CFD) (*relation.Relation, error) {
	done := t.begin(ctx, callDetectAssignedSingle)
	out, err := t.inner.DetectAssignedSingle(ctx, taskPrefix, spec, blocks, c)
	done(err, 0)
	return out, err
}

func (t *tracedSite) DetectAssignedSet(ctx context.Context, taskPrefix string, spec *core.BlockSpec, blocks []int, cfds []*cfd.CFD) ([]*relation.Relation, error) {
	done := t.begin(ctx, callDetectAssignedSet)
	out, err := t.inner.DetectAssignedSet(ctx, taskPrefix, spec, blocks, cfds)
	done(err, 0)
	return out, err
}

func (t *tracedSite) DetectConstantsLocal(ctx context.Context, c *cfd.CFD) (*relation.Relation, error) {
	done := t.begin(ctx, callDetectConstantsLocal)
	out, err := t.inner.DetectConstantsLocal(ctx, c)
	done(err, 0)
	return out, err
}

func (t *tracedSite) MineFrequent(ctx context.Context, x []string, theta float64) ([]mining.Pattern, error) {
	done := t.begin(ctx, callMineFrequent)
	out, err := t.inner.MineFrequent(ctx, x, theta)
	done(err, 0)
	return out, err
}

func (t *tracedSite) Ping(ctx context.Context) error {
	done := t.begin(ctx, callPing)
	err := t.inner.Ping(ctx)
	done(err, 0)
	return err
}

func (t *tracedSite) ApplyDelta(ctx context.Context, d relation.Delta, nonce string) (core.DeltaInfo, error) {
	done := t.begin(ctx, callApplyDelta)
	out, err := t.inner.ApplyDelta(ctx, d, nonce)
	done(err, 0)
	return out, err
}

func (t *tracedSite) ExtractDeltaBlocks(ctx context.Context, spec *core.BlockSpec, attrs []string, wanted []int, fromGen int64) (*core.DeltaBlocks, error) {
	done := t.begin(ctx, callExtractDeltaBlocks)
	out, err := t.inner.ExtractDeltaBlocks(ctx, spec, attrs, wanted, fromGen)
	done(err, 0)
	return out, err
}

func (t *tracedSite) FoldDetect(ctx context.Context, args core.FoldArgs) (*core.FoldReply, error) {
	done := t.begin(ctx, callFoldDetect)
	out, err := t.inner.FoldDetect(ctx, args)
	done(err, 0)
	return out, err
}

func (t *tracedSite) DropSession(session string) error {
	done := t.begin(nil, callDropSession)
	err := t.inner.DropSession(session)
	done(err, 0)
	return err
}

// DetectParallelism forwards to the inner site when it has the knob.
func (t *tracedSite) DetectParallelism() int {
	if p, ok := t.inner.(interface{ DetectParallelism() int }); ok {
		return p.DetectParallelism()
	}
	return 0
}

// SetDetectParallelism forwards to the inner site when it has the knob.
func (t *tracedSite) SetDetectParallelism(n int) {
	if p, ok := t.inner.(interface{ SetDetectParallelism(int) }); ok {
		p.SetDetectParallelism(n)
	}
}

// PendingDeposits forwards the leak-detection counter.
func (t *tracedSite) PendingDeposits() int {
	if p, ok := t.inner.(interface{ PendingDeposits() int }); ok {
		return p.PendingDeposits()
	}
	return 0
}

// Close forwards to the inner site when it holds resources.
func (t *tracedSite) Close() error {
	if c, ok := t.inner.(interface{ Close() error }); ok {
		return c.Close()
	}
	return nil
}

// layerFigures reduces the spans of a traced timed loop to the
// span-derived per-layer metrics.
func layerFigures(spans []span) map[string]metric {
	out := make(map[string]metric)
	var ops []*span
	children := make(map[int64][]*span)
	var driverTotal, serverTotal int64
	var driverCalls, serverCalls, failed int
	calls := make(map[string]int)
	busy := make(map[string]int64)
	var depositTuples int
	for i := range spans {
		s := &spans[i]
		switch s.Side {
		case sideOp:
			ops = append(ops, s)
		case sideServer:
			serverCalls++
			serverTotal += s.dur()
		case sideDriver:
			driverCalls++
			driverTotal += s.dur()
			calls[callPhases[s.Call]]++
			busy[callPhases[s.Call]] += s.dur()
			if s.Err {
				failed++
			}
			depositTuples += int(s.Tuples)
			if s.Parent != 0 {
				children[s.Parent] = append(children[s.Parent], s)
			}
		}
	}
	n := float64(len(ops))
	if n == 0 {
		return out
	}
	var self int64
	for _, op := range ops {
		self += op.dur() - covered(op, children[op.ID])
	}
	const ms = float64(time.Millisecond)
	out["core.driver_self_ms_per_op"] = metric{float64(self) / ms / n, "ms/op"}
	out["core.site_calls_per_op"] = metric{float64(driverCalls) / n, "calls/op"}
	for _, p := range phases {
		out[fmt.Sprintf("site.%s.calls_per_op", p)] = metric{float64(calls[p]) / n, "calls/op"}
		out[fmt.Sprintf("site.%s.busy_ms_per_op", p)] = metric{float64(busy[p]) / ms / n, "ms/op"}
	}
	out["site.deposit.tuples_per_op"] = metric{float64(depositTuples) / n, "tuples/op"}
	out["site.failed_calls_per_op"] = metric{float64(failed) / n, "calls/op"}
	out["remote.rpcs_per_op"] = metric{float64(serverCalls) / n, "calls/op"}
	overhead := 0.0
	if serverCalls > 0 {
		overhead = float64(driverTotal-serverTotal) / ms / n
	}
	out["remote.overhead_ms_per_op"] = metric{overhead, "ms/op"}
	return out
}

// covered returns how much of op's interval the union of the child
// spans covers.
func covered(op *span, kids []*span) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, op.Start), min(k.End, op.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, curLo, curHi int64
	for i, v := range ivs {
		if i == 0 || v.lo > curHi {
			total += curHi - curLo
			curLo, curHi = v.lo, v.hi
		} else if v.hi > curHi {
			curHi = v.hi
		}
	}
	return total + curHi - curLo
}
