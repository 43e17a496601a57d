package core

import (
	"context"
	"fmt"
	"sort"
	"time"

	"distcfd/internal/cfd"
	"distcfd/internal/dist"
	"distcfd/internal/relation"
)

// This file is the driver half of incremental detection. A compiled
// plan retains, per unit, an incremental session: a sticky coordinator
// assignment, a per-site fold watermark (fragment generation), and the
// session key naming the group states the coordinators keep. A
// DetectIncremental round then
//
//  1. recomputes the run's *accounting* exactly as a fresh Detect
//     would — per-block statistics come from the sites' maintained σ
//     entries, the coordinator policy re-runs on them, and the
//     shipments that fresh run would make are charged to the metrics'
//     regular channel — so ShippedTuples, ModeledTime, and the
//     violation output of an incremental round are byte-identical to
//     a fresh compiled Detect on the same data;
//  2. moves only deltas: every site σ-routes its logged delta suffix,
//     ships the per-block inserts and delete records to the sticky
//     coordinators (the delta channel of dist.Metrics), and each
//     coordinator folds them into its retained group states.
//
// The first round (and any round the sites report stale state for —
// trimmed log, evicted session, foreign mutation) seeds: full blocks
// ship once as one big insert delta, rebuilding the retained state;
// a delete-heavy history (Options.DeltaFallbackRatio) reseeds too.
// Sticky coordinators may drift from what the current statistics
// would choose; that changes which site folds a block, never the
// violation union or the reported (fresh-equivalent) accounting.

// unitInc is the retained driver state of one plan unit's session.
type unitInc struct {
	session       string
	sticky        []int
	foldedGen     []int64
	seeded        bool
	delsSinceSeed int
}

func newUnitInc(k, n int) *unitInc {
	return &unitInc{sticky: make([]int, k), foldedGen: make([]int64, n)}
}

// invalidate abandons the session after a failed round: deposits are
// drained (and late arrivals tombstoned), coordinator states dropped,
// and the next round reseeds under a fresh key.
func (st *unitInc) invalidate(cl *Cluster) {
	if st.session != "" {
		cl.cancelTask(st.session)
		cl.dropSession(st.session)
	}
	st.session = ""
	st.seeded = false
}

// incPipeOut mirrors pipelineOut for the incremental pipeline.
type incPipeOut struct {
	coords []int
	parts  [][]*relation.Relation
}

// runIncrementalPipeline executes one incremental round of the σ-block
// pipeline over an already-built spec: fresh-equivalent accounting
// into m's regular channel, delta movement on the delta channel, folds
// at the sticky coordinators. A stale-state failure retries once with
// a full reseed; any error leaves the session invalidated (zero
// retained deposits) and the next call reseeds.
func runIncrementalPipeline(ctx context.Context, cl *Cluster, fs *faultState, spec *BlockSpec, detectCFDs []*cfd.CFD,
	restrictSingle bool, algo Algorithm, opt Options, m *dist.Metrics, fragSizes []int, st *unitInc) (*incPipeOut, error) {

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	prunedSite, prunedBlock := pruneMatrix(cl.preds, spec)

	// Local statistics, as a fresh run computes them — the sites serve
	// the maintained σ entries, so this is O(K) per site after deltas.
	lstat := make([][]int, cl.N())
	if err := cl.parallelCtx(ctx, func(ctx context.Context, i int) error {
		if prunedSite[i] {
			lstat[i] = make([]int, spec.K())
			return nil
		}
		return cl.callSite(ctx, fs, i, OpSigmaStats, func(ctx context.Context) error {
			s, err := cl.sites[i].SigmaStats(ctx, spec)
			if err != nil {
				return err
			}
			for l := range s {
				if prunedBlock[i][l] {
					s[l] = 0
				}
			}
			lstat[i] = s
			return nil
		})
	}); err != nil {
		return nil, err
	}
	for i := 0; i < cl.N(); i++ {
		if !prunedSite[i] {
			cl.broadcastControl(m, i, int64(8*spec.K()))
		}
	}

	coords := assign(algo, lstat, fragSizes, opt.Cost, fs.eligible())

	// Fresh-equivalent shipment accounting: exactly the blocks a fresh
	// run would move, charged as tuple counts (payload bytes live on
	// the delta channel — they are what actually crossed the wire).
	for l, coord := range coords {
		if coord < 0 {
			continue
		}
		for i := 0; i < cl.N(); i++ {
			if i != coord && lstat[i][l] > 0 {
				m.ShipTuples(i, coord, lstat[i][l], 0)
			}
		}
	}

	// Each attempt records its delta shipments on its own metrics,
	// merged into the round's only on success: a stale-state retry must
	// not fold the aborted attempt's traffic into the figures. Under an
	// active failure policy, a transient failure that escaped the
	// per-call retries recovers the same way a stale session does —
	// invalidate and reseed — up to the unit attempt budget. (The
	// incremental path never excludes sites; FailDegrade behaves like
	// FailRetry here.)
	attempts := 2
	if fs.active() {
		if ua := fs.retry.withDefaults().UnitAttempts; ua > attempts {
			attempts = ua
		}
	}
	var parts [][]*relation.Relation
	var err error
	for attempt := 0; attempt < attempts; attempt++ {
		attemptM := dist.NewMetrics(cl.N())
		parts, err = st.dataRound(ctx, cl, fs, spec, detectCFDs, restrictSingle, attemptM, prunedSite, coords, fragSizes, opt)
		if err == nil {
			m.Merge(attemptM)
			return &incPipeOut{coords: coords, parts: parts}, nil
		}
		st.invalidate(cl)
		if ctx.Err() != nil {
			return nil, err
		}
		retryable := IsStaleIncremental(err) || (fs.active() && isTransient(err))
		if !retryable {
			return nil, err
		}
	}
	return nil, err
}

// dataRound runs the movement-and-fold half of one round: extraction
// of delta (or, seeding, full) blocks at every site, shipping to the
// sticky coordinators, folding, and watermark commit.
func (st *unitInc) dataRound(ctx context.Context, cl *Cluster, fs *faultState, spec *BlockSpec, detectCFDs []*cfd.CFD,
	restrictSingle bool, m *dist.Metrics, prunedSite []bool, freshCoords []int, fragSizes []int, opt Options) ([][]*relation.Relation, error) {

	attrs := taskAttrs(spec, detectCFDs)
	n := cl.N()
	seeding := !st.seeded
	replies := make([]*DeltaBlocks, n)

	extract := func(sticky []int, fromGen func(int) int64) error {
		return cl.parallelCtx(ctx, func(ctx context.Context, i int) error {
			if prunedSite[i] {
				return nil
			}
			var wanted []int
			for l, coord := range sticky {
				if coord >= 0 && coord != i {
					wanted = append(wanted, l)
				}
			}
			return cl.callSite(ctx, fs, i, OpExtractDeltaBlocks, func(ctx context.Context) error {
				rep, err := cl.sites[i].ExtractDeltaBlocks(ctx, spec, attrs, wanted, fromGen(i))
				if err != nil {
					return err
				}
				replies[i] = rep
				return nil
			})
		})
	}

	if !seeding {
		// Blocks born since the seed (empty cluster-wide back then)
		// get a coordinator now; their whole content arrives as deltas.
		newSticky := append([]int(nil), st.sticky...)
		for l := range newSticky {
			if newSticky[l] < 0 {
				newSticky[l] = freshCoords[l]
			}
		}
		if err := extract(newSticky, func(i int) int64 { return st.foldedGen[i] }); err != nil {
			if !IsStaleIncremental(err) {
				return nil, err
			}
			seeding = true
		} else {
			dels := st.delsSinceSeed
			total := 0
			for i, rep := range replies {
				total += fragSizes[i]
				if rep != nil {
					dels += rep.TotalDel
				}
			}
			if float64(dels) > opt.DeltaFallbackRatio*float64(total) {
				seeding = true
			} else {
				st.delsSinceSeed = dels
				st.sticky = newSticky
			}
		}
	}
	if seeding {
		st.invalidate(cl)
		st.session = cl.newTask("inc")
		st.sticky = append([]int(nil), freshCoords...)
		st.foldedGen = make([]int64, n)
		st.delsSinceSeed = 0
		replies = make([]*DeltaBlocks, n)
		if err := extract(st.sticky, func(int) int64 { return -1 }); err != nil {
			return nil, err
		}
	}

	// Ship the delta blocks. From here the session owns deposits at
	// other sites; every abandoning exit must cancel the session task,
	// which invalidate (in the callers' error path) does.
	if err := cl.parallelCtx(ctx, func(ctx context.Context, i int) error {
		rep := replies[i]
		if rep == nil {
			return nil
		}
		for l, batch := range rep.Ins {
			if err := ctx.Err(); err != nil {
				return err
			}
			if opt.NoPackedShip {
				batch.DropPacked()
			}
			if err := cl.shipDelta(ctx, fs, m, i, st.sticky[l], BlockTask(st.session, l)+"/ins", batch); err != nil {
				return err
			}
		}
		for l, batch := range rep.Del {
			if err := ctx.Err(); err != nil {
				return err
			}
			if opt.NoPackedShip {
				batch.DropPacked()
			}
			if err := cl.shipDelta(ctx, fs, m, i, st.sticky[l], BlockTask(st.session, l)+"/del", batch); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Fold at the coordinators.
	bySite := blocksBySite(st.sticky, n)
	parts := make([][]*relation.Relation, len(detectCFDs))
	for ci := range parts {
		parts[ci] = make([]*relation.Relation, n)
	}
	foldGen := make([]int64, n)
	if err := cl.parallelCtx(ctx, func(ctx context.Context, j int) error {
		if len(bySite[j]) == 0 {
			return nil
		}
		// Folding consumes deposits and mutates the session's retained
		// states: not idempotent, so only provably-unexecuted failures
		// retry in place; the rest reseed via the round-level retry.
		return cl.callSite(ctx, fs, j, OpFoldDetect, func(ctx context.Context) error {
			rep, err := cl.sites[j].FoldDetect(ctx, FoldArgs{
				Session:        st.session,
				Spec:           spec,
				Blocks:         bySite[j],
				CFDs:           detectCFDs,
				RestrictSingle: restrictSingle,
				Seed:           seeding,
				FromGen:        st.foldedGen[j],
			})
			if err != nil {
				return err
			}
			for ci := range detectCFDs {
				parts[ci][j] = rep.Patterns[ci]
			}
			foldGen[j] = rep.ToGen
			return nil
		})
	}); err != nil {
		return nil, err
	}

	// Commit watermarks only on full success; a partial round was
	// invalidated by the caller and reseeds.
	for i := 0; i < n; i++ {
		if replies[i] != nil {
			st.foldedGen[i] = replies[i].ToGen
		}
		if len(bySite[i]) > 0 {
			st.foldedGen[i] = foldGen[i]
		}
	}
	st.seeded = true
	return parts, nil
}

// DetectIncremental runs the compiled single-CFD plan against the
// cluster's current data, serving from retained delta state: only
// tuples that changed since the previous call (per the sites' delta
// logs) are σ-routed and shipped, and the sticky coordinators fold
// them into retained group states. The reported Patterns, Vio,
// ShippedTuples, CheckSizes, and ModeledTime are byte-identical to a
// fresh sp.Detect on the same data (property-tested); what actually
// moved is reported in DeltaShippedTuples/DeltaShippedBytes. The first
// call — and any call after an error, a site restart, or a
// delete-heavy history — transparently reseeds with one full shipment.
//
// Calls serialize on the plan's incremental session; mutation of the
// fragments (ApplyDelta) must not overlap a call, the usual
// single-writer rule.
func (sp *SinglePlan) DetectIncremental(ctx context.Context) (*SingleResult, error) {
	sp.incMu.Lock()
	defer sp.incMu.Unlock()
	return sp.detectIncrementalLocked(ctx)
}

func (sp *SinglePlan) detectIncrementalLocked(ctx context.Context) (*SingleResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	opt := sp.opt
	cl := sp.cl
	start := time.Now()
	m := dist.NewMetrics(cl.N())
	// The incremental path retries transient failures (per call, then
	// per round via reseed) but never excludes sites: a sticky
	// coordinator's retained state is the whole point, so FailDegrade
	// behaves like FailRetry here.
	fs := newFaultState(cl.N(), opt)
	res := &SingleResult{
		CFD:           sp.c,
		Algorithm:     sp.algo,
		Metrics:       m,
		Spec:          sp.spec,
		MinedPatterns: sp.mined,
		Incremental:   true,
	}

	fragSizes, err := cl.fragmentSizes()
	if err != nil {
		return nil, err
	}
	constParts, err := detectConstantsEverywhere(ctx, cl, fs, sp.c)
	if err != nil {
		return nil, err
	}
	if sp.view == nil {
		res.Patterns = mergeDistinct(sp.patternSchema, constParts)
		res.LocalOnly = true
		fin, err := finishSingle(cl, res, opt, fragSizes, start)
		if err != nil {
			return nil, err
		}
		sp.finishFailure(fin, fs)
		return fin, nil
	}
	for _, cb := range sp.control {
		cl.broadcastControl(m, cb.from, cb.bytes)
	}
	if sp.inc == nil {
		sp.inc = newUnitInc(sp.spec.K(), cl.N())
	}
	out, err := runIncrementalPipeline(ctx, cl, fs, sp.spec, []*cfd.CFD{sp.view}, true, sp.algo, opt, m, fragSizes, sp.inc)
	if err != nil {
		return nil, err
	}
	res.Coordinators = out.coords
	res.LocalOnly = m.TotalTuples() == 0
	res.Patterns = mergeDistinct(sp.patternSchema, append(constParts, out.parts[0]...))
	res.DeltaShippedTuples = m.DeltaTuples()
	res.DeltaShippedBytes = m.DeltaBytes()
	fin, err := finishSingle(cl, res, opt, fragSizes, start)
	if err != nil {
		return nil, err
	}
	sp.finishFailure(fin, fs)
	return fin, nil
}

// DetectDelta applies the given per-site deltas and runs one
// incremental round: the ΔD-in, changes-out serving shape. The apply
// happens under the plan's incremental lock, so concurrent
// DetectDelta/DetectIncremental calls on this plan serialize instead
// of racing mutation against a running round. (Mutating the cluster
// from elsewhere while any detection runs remains unsupported, as for
// all mutation.)
func (sp *SinglePlan) DetectDelta(ctx context.Context, deltas map[int]relation.Delta) (*SingleResult, error) {
	sp.incMu.Lock()
	defer sp.incMu.Unlock()
	if err := applyDeltas(ctx, sp.cl, deltas); err != nil {
		return nil, err
	}
	return sp.detectIncrementalLocked(ctx)
}

// detectIncremental mirrors clusterPlan.detect for an incremental
// round; the accounting formulas are identical, reading the
// fresh-equivalent channel of the round's metrics.
func (cp *clusterPlan) detectIncremental(ctx context.Context) ([]*relation.Relation, float64, *dist.Metrics, error) {
	cl := cp.cl
	m := dist.NewMetrics(cl.N())
	fs := newFaultState(cl.N(), cp.opt) // no exclusions on this path; see SinglePlan
	fragSizes, err := cl.fragmentSizes()
	if err != nil {
		return nil, 0, nil, err
	}
	constParts := make([][]*relation.Relation, len(cp.group))
	for ci, c := range cp.group {
		parts, err := detectConstantsEverywhere(ctx, cl, fs, c)
		if err != nil {
			return nil, 0, nil, err
		}
		constParts[ci] = parts
	}
	out := make([]*relation.Relation, len(cp.group))
	for ci := range cp.group {
		out[ci] = mergeDistinct(cp.schemas[ci], constParts[ci])
	}
	modeled := 0.0
	if cp.spec != nil {
		if cp.inc == nil {
			cp.inc = newUnitInc(cp.spec.K(), cl.N())
		}
		pipe, err := runIncrementalPipeline(ctx, cl, fs, cp.spec, cp.views, false, cp.algo, cp.opt, m, fragSizes, cp.inc)
		if err != nil {
			return nil, 0, nil, err
		}
		for vi, ci := range cp.viewIdx {
			out[ci] = mergeDistinct(out[ci].Schema(), append([]*relation.Relation{out[ci]}, pipe.parts[vi]...))
		}
		checkSizes := make([]int, cl.N())
		for i := range checkSizes {
			checkSizes[i] = fragSizes[i] + int(m.ReceivedBy(i))
		}
		modeled = cp.opt.Cost.ResponseTime(m, checkSizes)
	} else {
		modeled = cp.opt.Cost.ResponseTime(m, fragSizes)
	}
	for ci, c := range cp.group {
		if err := out[ci].SortBy(c.X...); err != nil {
			return nil, 0, nil, err
		}
	}
	fs.stamp(m)
	return out, modeled, m, nil
}

func (u *planUnit) detectIncremental(ctx context.Context) ([]*relation.Relation, float64, *dist.Metrics, error) {
	if u.single != nil {
		one, err := u.single.DetectIncremental(ctx)
		if err != nil {
			return nil, 0, nil, fmt.Errorf("core: cfd %s: %w", u.single.c.Name, err)
		}
		return []*relation.Relation{one.Patterns}, one.ModeledTime, one.Metrics, nil
	}
	return u.multi.detectIncremental(ctx)
}

// DetectIncremental runs the compiled set plan from retained delta
// state, unit by unit in deterministic cluster order (incremental
// rounds mutate per-unit session state, so Options.Workers does not
// apply). The violation sets, ShippedTuples, and ModeledTime equal a
// fresh p.Detect on the same data; DeltaShippedTuples/Bytes report the
// actual wire traffic.
func (p *Plan) DetectIncremental(ctx context.Context) (*SetResult, error) {
	p.incMu.Lock()
	defer p.incMu.Unlock()
	return p.detectIncrementalLocked(ctx)
}

func (p *Plan) detectIncrementalLocked(ctx context.Context) (*SetResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	start := time.Now()
	total := dist.NewMetrics(p.cl.N())
	res := &SetResult{
		CFDs:        p.cfds,
		Metrics:     total,
		PerCFD:      make([]*relation.Relation, len(p.cfds)),
		Clusters:    p.clusters,
		Incremental: true,
		Coverage:    1,
	}
	unitModeled := make([]float64, len(p.units))
	unitMetrics := make([]*dist.Metrics, len(p.units))
	for gi, u := range p.units {
		pats, modeled, m, err := u.detectIncremental(ctx)
		if err != nil {
			return nil, err
		}
		total.Merge(m)
		unitModeled[gi], unitMetrics[gi] = modeled, m
		for i, idx := range p.clusters[gi] {
			res.PerCFD[idx] = pats[i]
		}
	}
	p.fillAliases(res, unitMetrics)
	res.ModeledTime = p.modeledSum(unitModeled)
	res.ShippedTuples = total.TotalTuples()
	res.DeltaShippedTuples = total.DeltaTuples()
	res.DeltaShippedBytes = total.DeltaBytes()
	// Units stamp their own fault states into their metrics; Merge
	// carried them here, so the set totals fall out of the sum.
	res.Retries = total.TotalRetries()
	res.Faults = total.TotalFaults()
	res.WallTime = time.Since(start)
	return res, nil
}

// DetectDelta applies per-site deltas and runs one incremental round.
// The apply happens under the plan's incremental lock; see
// SinglePlan.DetectDelta for the serialization contract.
func (p *Plan) DetectDelta(ctx context.Context, deltas map[int]relation.Delta) (*SetResult, error) {
	p.incMu.Lock()
	defer p.incMu.Unlock()
	if err := applyDeltas(ctx, p.cl, deltas); err != nil {
		return nil, err
	}
	return p.detectIncrementalLocked(ctx)
}

// applyDeltas applies per-site deltas in ascending site order (a
// deterministic order so generation counters replay identically).
func applyDeltas(ctx context.Context, cl *Cluster, deltas map[int]relation.Delta) error {
	sites := make([]int, 0, len(deltas))
	for i := range deltas {
		sites = append(sites, i)
	}
	sort.Ints(sites)
	for _, i := range sites {
		if _, err := cl.ApplyDelta(ctx, i, deltas[i]); err != nil {
			return fmt.Errorf("core: applying delta at site %d: %w", i, err)
		}
	}
	return nil
}
