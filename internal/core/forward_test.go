package core

import (
	"context"
	"errors"
	"reflect"
	"slices"
	"testing"

	"distcfd/internal/cfd"
	"distcfd/internal/mining"
	"distcfd/internal/relation"
)

// TestOpTableMatchesSiteAPI pins the op table to the interface: every
// SiteAPI method has exactly one op named after it, so a method added
// without a table entry (or an entry for a removed method) fails here.
func TestOpTableMatchesSiteAPI(t *testing.T) {
	it := reflect.TypeOf((*SiteAPI)(nil)).Elem()
	var methods, ops []string
	for i := 0; i < it.NumMethod(); i++ {
		methods = append(methods, it.Method(i).Name)
	}
	for o := Op(0); o < numOps; o++ {
		ops = append(ops, o.String())
	}
	slices.Sort(ops)
	if !slices.Equal(methods, ops) {
		t.Fatalf("op table %v does not match SiteAPI methods %v", ops, methods)
	}
}

// TestOpClasses pins the classification the forwarder and callSite
// read. Only the idempotent class may be retried after a failure
// that may have executed.
func TestOpClasses(t *testing.T) {
	want := map[Op]opClass{
		OpID: classIdentity, OpNumTuples: classIdentity, OpPredicate: classIdentity,
		OpAbort: classCleanup, OpCancel: classCleanup, OpDropSession: classCleanup,
		OpDetectTask: classConsuming, OpDetectAssignedSingle: classConsuming,
		OpDetectAssignedSet: classConsuming, OpFoldDetect: classConsuming,
	}
	for o := Op(0); o < numOps; o++ {
		w, ok := want[o]
		if !ok {
			w = classIdempotent
		}
		if opTable[o].class != w {
			t.Errorf("%v: class %d, want %d", o, opTable[o].class, w)
		}
		if o.Idempotent() != (w == classIdempotent) {
			t.Errorf("%v: Idempotent() = %v", o, o.Idempotent())
		}
	}
}

var errRecorded = errors.New("recorded site error")

type ctxKey struct{}

// recordingSite implements SiteAPI by recording each call's op and
// arguments and answering with fixed results plus errRecorded.
type recordingSite struct {
	op   Op
	args []any
	n    int
	res  *relation.Relation
}

func (r *recordingSite) rec(op Op, args ...any) { r.op, r.args = op, args; r.n++ }

func (r *recordingSite) ID() int { r.rec(OpID); return 7 }
func (r *recordingSite) NumTuples() (int, error) {
	r.rec(OpNumTuples)
	return 11, errRecorded
}
func (r *recordingSite) Predicate() (relation.Predicate, error) {
	r.rec(OpPredicate)
	return relation.True(), errRecorded
}
func (r *recordingSite) SigmaStats(ctx context.Context, spec *BlockSpec) ([]int, error) {
	r.rec(OpSigmaStats, ctx, spec)
	return []int{1, 2}, errRecorded
}
func (r *recordingSite) ExtractBlock(ctx context.Context, spec *BlockSpec, l int, attrs []string) (*relation.Relation, error) {
	r.rec(OpExtractBlock, ctx, spec, l, attrs)
	return r.res, errRecorded
}
func (r *recordingSite) ExtractMatching(ctx context.Context, spec *BlockSpec, attrs []string) (*relation.Relation, error) {
	r.rec(OpExtractMatching, ctx, spec, attrs)
	return r.res, errRecorded
}
func (r *recordingSite) ExtractBlocksBatch(ctx context.Context, spec *BlockSpec, attrs []string, wanted []int) (map[int]*relation.Relation, error) {
	r.rec(OpExtractBlocksBatch, ctx, spec, attrs, wanted)
	return map[int]*relation.Relation{3: r.res}, errRecorded
}
func (r *recordingSite) Deposit(ctx context.Context, task string, batch *relation.Relation, nonce string) error {
	r.rec(OpDeposit, ctx, task, batch, nonce)
	return errRecorded
}
func (r *recordingSite) Abort(taskKey string) error { r.rec(OpAbort, taskKey); return errRecorded }
func (r *recordingSite) Cancel(taskKey string) error {
	r.rec(OpCancel, taskKey)
	return errRecorded
}
func (r *recordingSite) DetectTask(ctx context.Context, task string, local LocalInput, cfds []*cfd.CFD) ([]*relation.Relation, error) {
	r.rec(OpDetectTask, ctx, task, local, cfds)
	return []*relation.Relation{r.res}, errRecorded
}
func (r *recordingSite) DetectAssignedSingle(ctx context.Context, taskPrefix string, spec *BlockSpec, blocks []int, c *cfd.CFD) (*relation.Relation, error) {
	r.rec(OpDetectAssignedSingle, ctx, taskPrefix, spec, blocks, c)
	return r.res, errRecorded
}
func (r *recordingSite) DetectAssignedSet(ctx context.Context, taskPrefix string, spec *BlockSpec, blocks []int, cfds []*cfd.CFD) ([]*relation.Relation, error) {
	r.rec(OpDetectAssignedSet, ctx, taskPrefix, spec, blocks, cfds)
	return []*relation.Relation{r.res}, errRecorded
}
func (r *recordingSite) DetectConstantsLocal(ctx context.Context, c *cfd.CFD) (*relation.Relation, error) {
	r.rec(OpDetectConstantsLocal, ctx, c)
	return r.res, errRecorded
}
func (r *recordingSite) MineFrequent(ctx context.Context, x []string, theta float64) ([]mining.Pattern, error) {
	r.rec(OpMineFrequent, ctx, x, theta)
	return []mining.Pattern{{Vals: []string{"v"}, RelSupport: 0.5}}, errRecorded
}
func (r *recordingSite) Ping(ctx context.Context) error { r.rec(OpPing, ctx); return errRecorded }
func (r *recordingSite) ApplyDelta(ctx context.Context, d relation.Delta, nonce string) (DeltaInfo, error) {
	r.rec(OpApplyDelta, ctx, d, nonce)
	return DeltaInfo{Gen: 4, NumTuples: 5}, errRecorded
}
func (r *recordingSite) ExtractDeltaBlocks(ctx context.Context, spec *BlockSpec, attrs []string, wanted []int, fromGen int64) (*DeltaBlocks, error) {
	r.rec(OpExtractDeltaBlocks, ctx, spec, attrs, wanted, fromGen)
	return &DeltaBlocks{ToGen: 6}, errRecorded
}
func (r *recordingSite) FoldDetect(ctx context.Context, args FoldArgs) (*FoldReply, error) {
	r.rec(OpFoldDetect, ctx, args)
	return &FoldReply{ToGen: 8}, errRecorded
}
func (r *recordingSite) DropSession(session string) error {
	r.rec(OpDropSession, session)
	return errRecorded
}

// TestForwarderPassesEveryOp sends every op through a forwarder whose
// interceptor records the op and runs the call on a second site of its
// choosing. Arguments and results must pass through unchanged; identity
// and cleanup ops must reach the inner site without the interceptor.
func TestForwarderPassesEveryOp(t *testing.T) {
	sch := relation.MustSchema("r", []string{"a"})
	res := relation.New(sch)
	inner := &recordingSite{res: res}
	routed := &recordingSite{res: res}
	var seen []Op
	f := NewForwarder(func() SiteAPI { return inner }, func(_ context.Context, op Op, call func(SiteAPI) error) error {
		seen = append(seen, op)
		return call(routed)
	})

	ctx := context.WithValue(context.Background(), ctxKey{}, "ctx")
	spec := &BlockSpec{X: []string{"a"}, Patterns: [][]string{{"_"}}}
	attrs, wanted, blocks := []string{"a"}, []int{3}, []int{1, 2}
	c := &cfd.CFD{Name: "phi"}
	cfds := []*cfd.CFD{c}
	local := LocalInput{Spec: spec, Block: 2}
	delta := relation.Delta{Deletes: []int{0}}
	fold := FoldArgs{Session: "s", Spec: spec, Blocks: blocks, CFDs: cfds}
	pats := []mining.Pattern{{Vals: []string{"v"}, RelSupport: 0.5}}
	one := []*relation.Relation{res}

	// Each case calls one forwarder method and returns its results; args
	// are what the executing site must record, want what must come back.
	cases := map[Op]struct {
		run  func() []any
		args []any
		want []any
	}{
		OpID:        {func() []any { return []any{f.ID()} }, nil, []any{7}},
		OpNumTuples: {func() []any { n, err := f.NumTuples(); return []any{n, err} }, nil, []any{11, errRecorded}},
		OpPredicate: {func() []any { p, err := f.Predicate(); return []any{p, err} }, nil, []any{relation.True(), errRecorded}},
		OpSigmaStats: {func() []any { o, err := f.SigmaStats(ctx, spec); return []any{o, err} },
			[]any{ctx, spec}, []any{[]int{1, 2}, errRecorded}},
		OpExtractBlock: {func() []any { o, err := f.ExtractBlock(ctx, spec, 5, attrs); return []any{o, err} },
			[]any{ctx, spec, 5, attrs}, []any{res, errRecorded}},
		OpExtractMatching: {func() []any { o, err := f.ExtractMatching(ctx, spec, attrs); return []any{o, err} },
			[]any{ctx, spec, attrs}, []any{res, errRecorded}},
		OpExtractBlocksBatch: {func() []any { o, err := f.ExtractBlocksBatch(ctx, spec, attrs, wanted); return []any{o, err} },
			[]any{ctx, spec, attrs, wanted}, []any{map[int]*relation.Relation{3: res}, errRecorded}},
		OpDeposit: {func() []any { return []any{f.Deposit(ctx, "task", res, "nonce")} },
			[]any{ctx, "task", res, "nonce"}, []any{errRecorded}},
		OpAbort:  {func() []any { return []any{f.Abort("task")} }, []any{"task"}, []any{errRecorded}},
		OpCancel: {func() []any { return []any{f.Cancel("task")} }, []any{"task"}, []any{errRecorded}},
		OpDetectTask: {func() []any { o, err := f.DetectTask(ctx, "task", local, cfds); return []any{o, err} },
			[]any{ctx, "task", local, cfds}, []any{one, errRecorded}},
		OpDetectAssignedSingle: {func() []any { o, err := f.DetectAssignedSingle(ctx, "pre", spec, blocks, c); return []any{o, err} },
			[]any{ctx, "pre", spec, blocks, c}, []any{res, errRecorded}},
		OpDetectAssignedSet: {func() []any { o, err := f.DetectAssignedSet(ctx, "pre", spec, blocks, cfds); return []any{o, err} },
			[]any{ctx, "pre", spec, blocks, cfds}, []any{one, errRecorded}},
		OpDetectConstantsLocal: {func() []any { o, err := f.DetectConstantsLocal(ctx, c); return []any{o, err} },
			[]any{ctx, c}, []any{res, errRecorded}},
		OpMineFrequent: {func() []any { o, err := f.MineFrequent(ctx, attrs, 0.25); return []any{o, err} },
			[]any{ctx, attrs, 0.25}, []any{pats, errRecorded}},
		OpPing: {func() []any { return []any{f.Ping(ctx)} }, []any{ctx}, []any{errRecorded}},
		OpApplyDelta: {func() []any { o, err := f.ApplyDelta(ctx, delta, "nonce"); return []any{o, err} },
			[]any{ctx, delta, "nonce"}, []any{DeltaInfo{Gen: 4, NumTuples: 5}, errRecorded}},
		OpExtractDeltaBlocks: {func() []any { o, err := f.ExtractDeltaBlocks(ctx, spec, attrs, wanted, 9); return []any{o, err} },
			[]any{ctx, spec, attrs, wanted, int64(9)}, []any{&DeltaBlocks{ToGen: 6}, errRecorded}},
		OpFoldDetect: {func() []any { o, err := f.FoldDetect(ctx, fold); return []any{o, err} },
			[]any{ctx, fold}, []any{&FoldReply{ToGen: 8}, errRecorded}},
		OpDropSession: {func() []any { return []any{f.DropSession("sess")} }, []any{"sess"}, []any{errRecorded}},
	}

	for o := Op(0); o < numOps; o++ {
		tc, ok := cases[o]
		if !ok {
			t.Errorf("%v: no forwarder case", o)
			continue
		}
		seen = nil
		inner.n, routed.n = 0, 0
		got := tc.run()
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%v returned %v, want %v", o, got, tc.want)
		}
		passThrough := opTable[o].class == classIdentity || opTable[o].class == classCleanup
		exec, other := routed, inner
		if passThrough {
			exec, other = inner, routed
			if len(seen) != 0 {
				t.Errorf("%v reached the interceptor (%v)", o, seen)
			}
		} else if !slices.Equal(seen, []Op{o}) {
			t.Errorf("%v: interceptor saw %v, want exactly [%v]", o, seen, o)
		}
		if exec.n != 1 || other.n != 0 {
			t.Errorf("%v executed %d time(s) on the expected site and %d on the other", o, exec.n, other.n)
			continue
		}
		if exec.op != o || !reflect.DeepEqual(exec.args, tc.args) {
			t.Errorf("%v: site recorded %v%v, want %v%v", o, exec.op, exec.args, o, tc.args)
		}
	}
}

// TestForwarderOptionalSurfaces: the optional site methods reach an
// inner site that has them and answer zero values for one that lacks
// them.
func TestForwarderOptionalSurfaces(t *testing.T) {
	s := NewSite(0, relation.New(relation.MustSchema("r", []string{"a"})), relation.True())
	f := NewForwarder(func() SiteAPI { return s }, nil)
	f.SetDetectParallelism(3)
	if s.DetectParallelism() != 3 || f.DetectParallelism() != 3 {
		t.Errorf("parallelism knob not forwarded: site %d, forwarder %d", s.DetectParallelism(), f.DetectParallelism())
	}
	if f.PendingDeposits() != 0 || f.Close() != nil {
		t.Error("idle in-memory site should report no deposits and close cleanly")
	}
	bare := NewForwarder(func() SiteAPI { return &recordingSite{} }, nil)
	bare.SetDetectParallelism(3)
	if bare.DetectParallelism() != 0 || bare.PendingDeposits() != 0 || bare.Close() != nil {
		t.Error("a site without the optional surfaces must answer zero values")
	}
}
