package core

import (
	"context"

	"distcfd/internal/cfd"
	"distcfd/internal/mining"
	"distcfd/internal/relation"
)

// Op names one SiteAPI method. The op table classifies every method
// once, and both the wrapper layers (through Forwarder) and the
// driver's retry rule (Cluster.callSite) read that classification.
type Op uint8

// The SiteAPI operations, one per interface method.
const (
	OpID Op = iota
	OpNumTuples
	OpPredicate
	OpSigmaStats
	OpExtractBlock
	OpExtractMatching
	OpExtractBlocksBatch
	OpDeposit
	OpAbort
	OpCancel
	OpDetectTask
	OpDetectAssignedSingle
	OpDetectAssignedSet
	OpDetectConstantsLocal
	OpMineFrequent
	OpPing
	OpApplyDelta
	OpExtractDeltaBlocks
	OpFoldDetect
	OpDropSession
	numOps
)

// opClass says how an operation may be wrapped and retried.
type opClass uint8

const (
	// classIdentity: the site's identity accessors. They never reach an
	// interceptor — identity must stay coherent for a cluster to exist.
	classIdentity opClass = iota
	// classCleanup: best-effort release of site state (Abort, Cancel,
	// DropSession). They never reach an interceptor, so deposit
	// buffers are released under load, during drain and under faults.
	classCleanup
	// classIdempotent: safe to retry even when a failed attempt may
	// have executed — pure reads, the liveness probe, and the
	// nonce-deduped mutations (Deposit, ApplyDelta).
	classIdempotent
	// classConsuming: consumes deposits or session state, so it is
	// retried only while failures provably happened before execution.
	classConsuming
)

var opTable = [numOps]struct {
	name  string
	class opClass
}{
	OpID:                   {"ID", classIdentity},
	OpNumTuples:            {"NumTuples", classIdentity},
	OpPredicate:            {"Predicate", classIdentity},
	OpSigmaStats:           {"SigmaStats", classIdempotent},
	OpExtractBlock:         {"ExtractBlock", classIdempotent},
	OpExtractMatching:      {"ExtractMatching", classIdempotent},
	OpExtractBlocksBatch:   {"ExtractBlocksBatch", classIdempotent},
	OpDeposit:              {"Deposit", classIdempotent},
	OpAbort:                {"Abort", classCleanup},
	OpCancel:               {"Cancel", classCleanup},
	OpDetectTask:           {"DetectTask", classConsuming},
	OpDetectAssignedSingle: {"DetectAssignedSingle", classConsuming},
	OpDetectAssignedSet:    {"DetectAssignedSet", classConsuming},
	OpDetectConstantsLocal: {"DetectConstantsLocal", classIdempotent},
	OpMineFrequent:         {"MineFrequent", classIdempotent},
	OpPing:                 {"Ping", classIdempotent},
	OpApplyDelta:           {"ApplyDelta", classIdempotent},
	OpExtractDeltaBlocks:   {"ExtractDeltaBlocks", classIdempotent},
	OpFoldDetect:           {"FoldDetect", classConsuming},
	OpDropSession:          {"DropSession", classCleanup},
}

// String returns the SiteAPI method name ("Deposit"), the name fault
// plans and injected faults use.
func (o Op) String() string { return opTable[o].name }

// Idempotent reports whether the op may be retried after a failure
// that may have executed.
func (o Op) Idempotent() bool { return opTable[o].class == classIdempotent }

// Interceptor runs one site operation for a wrapper layer: it may
// reject or delay the call, and runs it by passing call the site to
// execute on (normally the wrapped one).
type Interceptor func(ctx context.Context, op Op, call func(SiteAPI) error) error

// Forwarder implements every SiteAPI method once, on behalf of a
// wrapper layer. Identity and cleanup ops go straight to the inner
// site; every other op runs through the interceptor. It also forwards
// the optional site surfaces (PendingDeposits, DetectParallelism,
// SetDetectParallelism, Close) when the inner site has them. Wrappers
// embed it.
type Forwarder struct {
	inner     func() SiteAPI
	intercept Interceptor
}

// NewForwarder returns a forwarder over the site inner() returns at
// each call (a wrapper may swap it, as a restarted site does).
func NewForwarder(inner func() SiteAPI, intercept Interceptor) Forwarder {
	return Forwarder{inner: inner, intercept: intercept}
}

var _ SiteAPI = Forwarder{}

// ID passes through.
func (f Forwarder) ID() int { return f.inner().ID() }

// NumTuples passes through.
func (f Forwarder) NumTuples() (int, error) { return f.inner().NumTuples() }

// Predicate passes through.
func (f Forwarder) Predicate() (relation.Predicate, error) { return f.inner().Predicate() }

// Abort passes through.
func (f Forwarder) Abort(taskKey string) error { return f.inner().Abort(taskKey) }

// Cancel passes through.
func (f Forwarder) Cancel(taskKey string) error { return f.inner().Cancel(taskKey) }

// DropSession passes through.
func (f Forwarder) DropSession(session string) error { return f.inner().DropSession(session) }

// Ping runs through the interceptor.
func (f Forwarder) Ping(ctx context.Context) error {
	return f.intercept(ctx, OpPing, func(in SiteAPI) error { return in.Ping(ctx) })
}

// SigmaStats runs through the interceptor.
func (f Forwarder) SigmaStats(ctx context.Context, spec *BlockSpec) (out []int, err error) {
	err = f.intercept(ctx, OpSigmaStats, func(in SiteAPI) error { out, err = in.SigmaStats(ctx, spec); return err })
	return out, err
}

// ExtractBlock runs through the interceptor.
func (f Forwarder) ExtractBlock(ctx context.Context, spec *BlockSpec, l int, attrs []string) (out *relation.Relation, err error) {
	err = f.intercept(ctx, OpExtractBlock, func(in SiteAPI) error { out, err = in.ExtractBlock(ctx, spec, l, attrs); return err })
	return out, err
}

// ExtractMatching runs through the interceptor.
func (f Forwarder) ExtractMatching(ctx context.Context, spec *BlockSpec, attrs []string) (out *relation.Relation, err error) {
	err = f.intercept(ctx, OpExtractMatching, func(in SiteAPI) error { out, err = in.ExtractMatching(ctx, spec, attrs); return err })
	return out, err
}

// ExtractBlocksBatch runs through the interceptor.
func (f Forwarder) ExtractBlocksBatch(ctx context.Context, spec *BlockSpec, attrs []string, wanted []int) (out map[int]*relation.Relation, err error) {
	err = f.intercept(ctx, OpExtractBlocksBatch, func(in SiteAPI) error {
		out, err = in.ExtractBlocksBatch(ctx, spec, attrs, wanted)
		return err
	})
	return out, err
}

// Deposit runs through the interceptor.
func (f Forwarder) Deposit(ctx context.Context, task string, batch *relation.Relation, nonce string) error {
	return f.intercept(ctx, OpDeposit, func(in SiteAPI) error { return in.Deposit(ctx, task, batch, nonce) })
}

// DetectTask runs through the interceptor.
func (f Forwarder) DetectTask(ctx context.Context, task string, local LocalInput, cfds []*cfd.CFD) (out []*relation.Relation, err error) {
	err = f.intercept(ctx, OpDetectTask, func(in SiteAPI) error { out, err = in.DetectTask(ctx, task, local, cfds); return err })
	return out, err
}

// DetectAssignedSingle runs through the interceptor.
func (f Forwarder) DetectAssignedSingle(ctx context.Context, taskPrefix string, spec *BlockSpec, blocks []int, c *cfd.CFD) (out *relation.Relation, err error) {
	err = f.intercept(ctx, OpDetectAssignedSingle, func(in SiteAPI) error {
		out, err = in.DetectAssignedSingle(ctx, taskPrefix, spec, blocks, c)
		return err
	})
	return out, err
}

// DetectAssignedSet runs through the interceptor.
func (f Forwarder) DetectAssignedSet(ctx context.Context, taskPrefix string, spec *BlockSpec, blocks []int, cfds []*cfd.CFD) (out []*relation.Relation, err error) {
	err = f.intercept(ctx, OpDetectAssignedSet, func(in SiteAPI) error {
		out, err = in.DetectAssignedSet(ctx, taskPrefix, spec, blocks, cfds)
		return err
	})
	return out, err
}

// DetectConstantsLocal runs through the interceptor.
func (f Forwarder) DetectConstantsLocal(ctx context.Context, c *cfd.CFD) (out *relation.Relation, err error) {
	err = f.intercept(ctx, OpDetectConstantsLocal, func(in SiteAPI) error { out, err = in.DetectConstantsLocal(ctx, c); return err })
	return out, err
}

// MineFrequent runs through the interceptor.
func (f Forwarder) MineFrequent(ctx context.Context, x []string, theta float64) (out []mining.Pattern, err error) {
	err = f.intercept(ctx, OpMineFrequent, func(in SiteAPI) error { out, err = in.MineFrequent(ctx, x, theta); return err })
	return out, err
}

// ApplyDelta runs through the interceptor.
func (f Forwarder) ApplyDelta(ctx context.Context, d relation.Delta, nonce string) (out DeltaInfo, err error) {
	err = f.intercept(ctx, OpApplyDelta, func(in SiteAPI) error { out, err = in.ApplyDelta(ctx, d, nonce); return err })
	return out, err
}

// ExtractDeltaBlocks runs through the interceptor.
func (f Forwarder) ExtractDeltaBlocks(ctx context.Context, spec *BlockSpec, attrs []string, wanted []int, fromGen int64) (out *DeltaBlocks, err error) {
	err = f.intercept(ctx, OpExtractDeltaBlocks, func(in SiteAPI) error {
		out, err = in.ExtractDeltaBlocks(ctx, spec, attrs, wanted, fromGen)
		return err
	})
	return out, err
}

// FoldDetect runs through the interceptor.
func (f Forwarder) FoldDetect(ctx context.Context, args FoldArgs) (out *FoldReply, err error) {
	err = f.intercept(ctx, OpFoldDetect, func(in SiteAPI) error { out, err = in.FoldDetect(ctx, args); return err })
	return out, err
}

// PendingDeposits forwards the leak-detection counter when the inner
// site has it.
func (f Forwarder) PendingDeposits() int {
	if p, ok := f.inner().(interface{ PendingDeposits() int }); ok {
		return p.PendingDeposits()
	}
	return 0
}

// DetectParallelism forwards to the inner site when it has the knob.
func (f Forwarder) DetectParallelism() int {
	if p, ok := f.inner().(interface{ DetectParallelism() int }); ok {
		return p.DetectParallelism()
	}
	return 0
}

// SetDetectParallelism forwards to the inner site when it has the knob.
func (f Forwarder) SetDetectParallelism(n int) {
	if p, ok := f.inner().(interface{ SetDetectParallelism(int) }); ok {
		p.SetDetectParallelism(n)
	}
}

// Close forwards to the inner site when it holds resources (a
// store-backed site's mapping and WAL handle).
func (f Forwarder) Close() error {
	if c, ok := f.inner().(interface{ Close() error }); ok {
		return c.Close()
	}
	return nil
}
