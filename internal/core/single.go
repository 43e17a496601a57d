package core

import (
	"context"
	"fmt"
	"time"

	"distcfd/internal/cfd"
	"distcfd/internal/relation"
)

// DetectSingle finds Vioπ(φ, D) over the cluster's horizontally
// partitioned relation with the chosen algorithm, implementing
// Section IV: constant units are checked locally at every site
// (Proposition 5); variable patterns are σ-partitioned (Lemma 6),
// statistics are exchanged, per-pattern coordinators are designated by
// the algorithm's policy, each tuple's (X,Y)-projection is shipped at
// most once to its block's coordinator, and coordinators detect their
// blocks in parallel.
//
// DetectSingle is the one-shot form: it compiles the CFD's plan and
// runs it once.
//
// Deprecated: compile once with CompileSingle and serve repeated
// traffic through SinglePlan.Detect (or DetectIncremental under delta
// traffic); this wrapper recompiles the Σ-side work on every call. It
// remains for tests and single-use tooling.
func DetectSingle(cl *Cluster, c *cfd.CFD, algo Algorithm, opt Options) (*SingleResult, error) {
	//distcfd:ctxflow-ok — deprecated context-free wrapper; callers own no context
	return DetectSingleCtx(context.Background(), cl, c, algo, opt)
}

// DetectSingleCtx is DetectSingle under a context: cancellation or
// deadline expiry aborts the run and cancels its task at every site,
// so no deposit outlives it.
func DetectSingleCtx(ctx context.Context, cl *Cluster, c *cfd.CFD, algo Algorithm, opt Options) (*SingleResult, error) {
	sp, err := CompileSingle(ctx, cl, c, algo, opt)
	if err != nil {
		return nil, err
	}
	return sp.Detect(ctx)
}

// detectConstantsEverywhere runs the Proposition 5 local check of c's
// constant units at every site in parallel. Excluded sites contribute
// nothing — their fragment is unreachable.
func detectConstantsEverywhere(ctx context.Context, cl *Cluster, fs *faultState, c *cfd.CFD) ([]*relation.Relation, error) {
	parts := make([]*relation.Relation, cl.N())
	err := cl.parallelCtx(ctx, func(ctx context.Context, i int) error {
		if fs.isExcluded(i) {
			return nil
		}
		return cl.callSite(ctx, fs, i, OpDetectConstantsLocal, func(ctx context.Context) error {
			pats, err := cl.sites[i].DetectConstantsLocal(ctx, c)
			if err != nil {
				return err
			}
			parts[i] = pats
			return nil
		})
	})
	return parts, err
}

func finishSingle(cl *Cluster, res *SingleResult, opt Options, fragSizes []int, start time.Time) (*SingleResult, error) {
	if res.Patterns == nil {
		res.Patterns = relation.New(mustPatternSchema(cl, res.CFD))
	}
	if err := res.Patterns.SortBy(res.CFD.X...); err != nil {
		return nil, err
	}
	vio, err := padPatterns(cl.schema, res.CFD.X, res.Patterns)
	if err != nil {
		return nil, err
	}
	res.Vio = vio
	res.CheckSizes = make([]int, cl.N())
	for i := range res.CheckSizes {
		res.CheckSizes[i] = fragSizes[i] + int(res.Metrics.ReceivedBy(i))
	}
	res.ShippedTuples = res.Metrics.TotalTuples()
	res.ModeledTime = opt.Cost.ResponseTime(res.Metrics, res.CheckSizes)
	res.WallTime = time.Since(start)
	res.Coverage = 1 // a degraded top-level finisher overwrites this
	return res, nil
}

func mustPatternSchema(cl *Cluster, c *cfd.CFD) *relation.Schema {
	s, err := cl.schema.Project("viopi_"+c.Name, c.X)
	if err != nil {
		panic(fmt.Sprintf("core: pattern schema for validated CFD: %v", err))
	}
	return s
}

func allWildcardLHS(c *cfd.CFD) bool {
	for _, tp := range c.Tp {
		for _, v := range tp.LHS {
			if v != cfd.Wildcard {
				return false
			}
		}
	}
	return true
}

// pruneMatrix evaluates Fi ∧ Fφ satisfiability for every site and
// pattern (Section IV-A). prunedSite[i] is true when site i is pruned
// for every pattern; prunedBlock[i][l] prunes individual pairs.
func pruneMatrix(preds []relation.Predicate, spec *BlockSpec) (prunedSite []bool, prunedBlock [][]bool) {
	n := len(preds)
	prunedSite = make([]bool, n)
	prunedBlock = make([][]bool, n)
	for i := 0; i < n; i++ {
		prunedBlock[i] = make([]bool, spec.K())
		if preds[i].IsTrue() {
			continue // unknown predicate: nothing provable
		}
		all := true
		for l := 0; l < spec.K(); l++ {
			if !preds[i].ConsistentWith(spec.PatternPredicate(l)) {
				prunedBlock[i][l] = true
			} else {
				all = false
			}
		}
		prunedSite[i] = all
	}
	return prunedSite, prunedBlock
}
