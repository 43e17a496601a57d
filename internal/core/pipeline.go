package core

import (
	"context"

	"distcfd/internal/cfd"
	"distcfd/internal/dist"
	"distcfd/internal/relation"
)

// pipelineOut carries the products of the shared σ-block pipeline:
// statistics, the coordinator assignment, and per-CFD, per-site
// violation-pattern relations.
type pipelineOut struct {
	lstat  [][]int
	coords []int
	// parts[ci][j] holds the X-patterns of detectCFDs[ci] found at
	// coordinator site j (nil when j coordinated no blocks).
	parts [][]*relation.Relation
}

// runBlockPipeline executes the common phases of Section IV-B/IV-C
// over an already-built σ spec:
//
//  1. Fi ∧ Fφ pruning,
//  2. parallel local statistics + exchange (control traffic),
//  3. coordinator assignment per the algorithm's policy,
//  4. parallel shipping of non-local blocks (each tuple at most once),
//  5. parallel detection at the coordinators.
//
// The context is checked at every phase boundary and inside the
// shipping loop; once shipping has begun, any failure or cancellation
// cancels the task at every site (drain + tombstone), so a run the
// driver gave up on cannot leave deposits behind — not even a batch
// that was still in flight when the driver stopped waiting.
//
// With restrictSingle, detectCFDs must be a single CFD and each block
// checks only its own pattern row (Lemma 6); otherwise every CFD's
// full tableau is checked inside each block (the ClustDetect
// coordinator step).
func runBlockPipeline(ctx context.Context, cl *Cluster, fs *faultState, spec *BlockSpec, detectCFDs []*cfd.CFD, restrictSingle bool,
	algo Algorithm, opt Options, m *dist.Metrics, fragSizes []int) (*pipelineOut, error) {

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	prunedSite, prunedBlock := pruneMatrix(cl.preds, spec)
	// A degraded run treats excluded sites like fully pruned ones — no
	// statistics, no shipping, nothing received — except that pruning
	// keeps them coordinator-eligible while exclusion does not.
	for i := range prunedSite {
		if fs.isExcluded(i) {
			prunedSite[i] = true
		}
	}

	// Local statistics in parallel.
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
	// Statistics exchange: involved sites broadcast their lstat vector.
	for i := 0; i < cl.N(); i++ {
		if !prunedSite[i] {
			cl.broadcastControl(m, i, int64(8*spec.K()))
		}
	}

	coords := assign(algo, lstat, fragSizes, opt.Cost, fs.eligible())

	// Shipping. From here on the run owns deposit buffers at other
	// sites: every exit that abandons the run must cancel the task
	// (drain + tombstone), or repeated failed runs against long-lived
	// sites grow memory without bound — task keys are never reused.
	attrs := taskAttrs(spec, detectCFDs)
	task := cl.newTask("blocks")
	if err := cl.parallelCtx(ctx, func(ctx context.Context, i int) error {
		if prunedSite[i] {
			return nil
		}
		var wanted []int
		for l, coord := range coords {
			if coord >= 0 && coord != i && lstat[i][l] > 0 {
				wanted = append(wanted, l)
			}
		}
		if len(wanted) == 0 {
			return nil
		}
		var batches map[int]*relation.Relation
		if err := cl.callSite(ctx, fs, i, OpExtractBlocksBatch, func(ctx context.Context) error {
			var err error
			batches, err = cl.sites[i].ExtractBlocksBatch(ctx, spec, attrs, wanted)
			return err
		}); err != nil {
			return err
		}
		for _, l := range wanted {
			if err := ctx.Err(); err != nil {
				return err
			}
			if opt.NoPackedShip {
				batches[l].DropPacked()
			}
			if err := cl.ship(ctx, fs, m, i, coords[l], BlockTask(task, l), batches[l]); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		cl.cancelTask(task)
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		cl.cancelTask(task)
		return nil, err
	}

	// Detection at the coordinators.
	bySite := blocksBySite(coords, cl.N())
	parts := make([][]*relation.Relation, len(detectCFDs))
	for ci := range parts {
		parts[ci] = make([]*relation.Relation, cl.N())
	}
	if err := cl.parallelCtx(ctx, func(ctx context.Context, j int) error {
		if len(bySite[j]) == 0 {
			return nil
		}
		// Detection consumes deposits, so it is not idempotent: callSite
		// retries it only while failures provably happened before
		// execution; anything murkier escalates to a unit re-run.
		op := OpDetectAssignedSet
		if restrictSingle {
			op = OpDetectAssignedSingle
		}
		return cl.callSite(ctx, fs, j, op, func(ctx context.Context) error {
			if restrictSingle {
				pats, err := cl.sites[j].DetectAssignedSingle(ctx, task, spec, bySite[j], detectCFDs[0])
				if err != nil {
					return err
				}
				parts[0][j] = pats
				return nil
			}
			perCFD, err := cl.sites[j].DetectAssignedSet(ctx, task, spec, bySite[j], detectCFDs)
			if err != nil {
				return err
			}
			for ci := range detectCFDs {
				parts[ci][j] = perCFD[ci]
			}
			return nil
		})
	}); err != nil {
		// Coordinators consume deposits as they detect; a partial
		// failure leaves the other coordinators' buffers behind.
		cl.cancelTask(task)
		return nil, err
	}
	return &pipelineOut{lstat: lstat, coords: coords, parts: parts}, nil
}
