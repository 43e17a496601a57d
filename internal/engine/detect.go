package engine

import (
	"encoding/binary"
	"math"
	"math/bits"
	"sync"

	"distcfd/internal/cfd"
	"distcfd/internal/relation"
)

// The fast detector. For each normalized unit (X→A, tp):
//
//   - constant unit: one scan; t violates iff t[X] ≍ tp[X] ∧ t[A]≠tp[A]
//     (the Qc query of [2]);
//   - variable unit: hash-group the tuples matching tp[X] by X; every
//     tuple of a group with >1 distinct A-value violates (the Qv
//     GROUP BY … HAVING COUNT(DISTINCT A)>1 query of [2]).
//
// Both scans run on the relation's columnar dictionary-encoded view
// (relation.Encoded): pattern constants are resolved to column IDs
// once per unit, matching is fixed-width integer comparison, the
// variable group-by keys on dense group IDs through the map-free fold
// of fold.go, and violations accumulate in a row-indexed bitset —
// sorted output falls out of iteration order, with no per-call map or
// sort. The per-row loops can additionally be sharded across an
// intra-unit worker budget (see kernel.go); per-shard group states
// merge associatively, so the parallel kernel is byte-identical to the
// serial one. DetectRows (rows.go) keeps the string-key reference
// path. Semantics match internal/cfd.NaiveViolations, which serves as
// the test oracle.

// noGroup marks rows excluded from a variable unit's grouping (pattern
// mismatch). Group IDs are dense, bounded by the row count, so the
// sentinel can never collide.
const noGroup = math.MaxUint32

// scratchShrinkRows bounds the per-row buffers (gids, state, first,
// bits, shard states) a pooled scratch may retain: past it the buffers
// are dropped wholesale when the scratch returns to its pool, so one
// huge unit cannot permanently inflate a long-lived compiled plan's
// scratch (the PR-3 serving-cache reset policy).
const scratchShrinkRows = 1 << 21

// detectScratch carries the reusable buffers of one detection call so
// consecutive units (and CFDs, for DetectSet) do not reallocate them.
// Scratches are pooled per Kernel and reused across Detect calls.
type detectScratch struct {
	gids  []uint32 // per-row group id, noGroup when unmatched
	state []uint8  // per-group: 0 unseen, 1 single A, 2 mixed
	first []uint32 // per-group first A id (valid when state≥1)
	fold  foldStage

	// Violation bitset: bit i set ⇔ row i violates. Shared across the
	// units (and CFDs) of one call; ascending iteration replaces the
	// old map[int]struct{} + sort.Ints.
	bits  []uint64
	nbits int

	// Flat per-extra-shard group states of the intra-unit parallel
	// path: shard s ∈ [1, workers) uses rows [(s-1)·num, s·num).
	shardState []uint8
	shardFirst []uint32

	// Streaming column buffers of the reader path (reader.go): one flat
	// backing array sliced into per-column chunk windows.
	readFlat  []uint32
	readBufsV [][]uint32
}

func (sc *detectScratch) groupBufs(num int) (state []uint8, first []uint32) {
	if cap(sc.state) < num {
		sc.state = make([]uint8, num)
		sc.first = make([]uint32, num)
	} else {
		sc.state = sc.state[:num]
		sc.first = sc.first[:num]
		clear(sc.state)
	}
	return sc.state, sc.first
}

// shardBufs returns cleared flat state/first buffers for extra shards.
func (sc *detectScratch) shardBufs(extra, num int) ([]uint8, []uint32) {
	n := extra * num
	if cap(sc.shardState) < n {
		sc.shardState = make([]uint8, n)
		sc.shardFirst = make([]uint32, n)
	} else {
		sc.shardState = sc.shardState[:n]
		sc.shardFirst = sc.shardFirst[:n]
		clear(sc.shardState)
	}
	return sc.shardState, sc.shardFirst
}

// resetBits sizes and clears the violation bitset for rows rows.
func (sc *detectScratch) resetBits(rows int) {
	n := (rows + 63) >> 6
	if cap(sc.bits) < n {
		sc.bits = make([]uint64, n)
	} else {
		sc.bits = sc.bits[:n]
		clear(sc.bits)
	}
	sc.nbits = rows
}

func (sc *detectScratch) mark(i int) { sc.bits[i>>6] |= 1 << (uint(i) & 63) }

// violations materializes the bitset as ascending row indices (nil
// when empty, matching the historical sortedKeys output).
func (sc *detectScratch) violations() []int {
	n := 0
	for _, w := range sc.bits {
		n += bits.OnesCount64(w)
	}
	if n == 0 {
		return nil
	}
	out := make([]int, 0, n)
	for wi, w := range sc.bits {
		base := wi << 6
		for w != 0 {
			out = append(out, base+bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
	return out
}

// shrink drops buffers grown past the retention bounds; called when
// the scratch returns to its pool. Each buffer is gated on its own
// capacity: the group buffers can exceed the row count (a sparse
// shared dictionary bounds groups, not rows) and the shard buffers
// are (workers−1)× the group space, so gating everything on gids
// would retain them far past the intended bound.
func (sc *detectScratch) shrink() {
	if cap(sc.gids) > scratchShrinkRows {
		sc.gids = nil
	}
	if cap(sc.state) > scratchShrinkRows {
		sc.state = nil
		sc.first = nil
	}
	if cap(sc.bits) > scratchShrinkRows>>6 {
		sc.bits = nil
	}
	if cap(sc.shardState) > scratchShrinkRows {
		sc.shardState = nil
		sc.shardFirst = nil
	}
	if cap(sc.readFlat) > scratchShrinkRows {
		sc.readFlat = nil
		sc.readBufsV = nil
	}
	sc.fold.shrink()
}

// DetectUnit returns the violation indices of one normalized CFD in d,
// in ascending order.
func DetectUnit(d *relation.Relation, n *cfd.Normalized) ([]int, error) {
	sc := defaultKernel.get()
	defer defaultKernel.put(sc)
	sc.resetBits(d.Encoded().Rows())
	if err := sc.detectUnit(d, n, 1); err != nil {
		return nil, err
	}
	return sc.violations(), nil
}

// detectUnit checks one normalized unit of a CFD against d, marking
// violating rows in the scratch bitset (which the caller has sized via
// resetBits). workers > 1 shards the per-row loops; the fold steps of
// multi-wildcard groupings stay serial (interning is order-dependent),
// and per-shard group states merge through the unseen/single/mixed
// lattice, so the result is identical at every worker count.
func (sc *detectScratch) detectUnit(d *relation.Relation, n *cfd.Normalized, workers int) error {
	xi, err := d.Schema().Indices(n.X)
	if err != nil {
		return err
	}
	aIdxs, err := d.Schema().Indices([]string{n.A})
	if err != nil {
		return err
	}
	e := d.Encoded()
	rows := e.Rows()
	if rows == 0 {
		return nil
	}
	workers = shardCount(workers, rows)

	// Resolve the pattern's constants against each column's dictionary;
	// a constant the relation does not hold matches no tuple at all. A
	// dictionary shared with a larger source (an extract, a merged
	// block) can know a constant its rows lack, so presence is asked of
	// the column (Holds), not the dictionary.
	var consts []constCol
	var varCols [][]uint32
	for j, p := range n.TpX {
		if p == cfd.Wildcard {
			col, _ := e.Column(xi[j])
			varCols = append(varCols, col)
			continue
		}
		col, dict := e.Column(xi[j])
		id, ok := dict.Lookup(p)
		if !ok || !e.Holds(xi[j], id) {
			return nil
		}
		consts = append(consts, constCol{col: col, id: id})
	}
	acol, adict := e.Column(aIdxs[0])

	if n.IsConstant() {
		aID, aOK := adict.Lookup(n.TpA)
		runShards(workers, rows, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				if matchConsts(consts, i) && (!aOK || acol[i] != aID) {
					sc.mark(i)
				}
			}
		})
		return nil
	}

	// Variable unit. Among tuples matching the constants, the constant
	// positions are all equal, so grouping by the wildcard positions
	// alone partitions exactly like grouping by the full X projection.
	if cap(sc.gids) < rows {
		sc.gids = make([]uint32, rows)
	}
	gids := sc.gids[:rows]
	num := 0
	switch len(varCols) {
	case 0:
		// All-constant LHS with a variable RHS: one group.
		runShards(workers, rows, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				if matchConsts(consts, i) {
					gids[i] = 0
				} else {
					gids[i] = noGroup
				}
			}
		})
		num = 1
	default:
		first := varCols[0]
		runShards(workers, rows, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				if matchConsts(consts, i) {
					gids[i] = first[i]
				} else {
					gids[i] = noGroup
				}
			}
		})
		num = dictLenFor(e, xi, n.TpX)
		for j, col := range varCols[1:] {
			num = foldColumn(gids, col, num, varColCard(e, xi, n.TpX, j+1), &sc.fold)
		}
	}

	state, firstA := sc.groupBufs(num)
	if workers <= 1 {
		for i := 0; i < rows; i++ {
			g := gids[i]
			if g == noGroup {
				continue
			}
			switch state[g] {
			case 0:
				state[g] = 1
				firstA[g] = acol[i]
			case 1:
				if acol[i] != firstA[g] {
					state[g] = 2
				}
			}
		}
	} else {
		// Shard 0 accumulates into the merge target directly; extra
		// shards into their own slices of the flat buffers.
		shardState, shardFirst := sc.shardBufs(workers-1, num)
		bounds := shardBounds(workers, rows)
		var wg sync.WaitGroup
		for s := 0; s < workers; s++ {
			st, fa := state, firstA
			if s > 0 {
				st = shardState[(s-1)*num : s*num]
				fa = shardFirst[(s-1)*num : s*num]
			}
			wg.Add(1)
			go func(lo, hi int, st []uint8, fa []uint32) {
				defer wg.Done()
				for i := lo; i < hi; i++ {
					g := gids[i]
					if g == noGroup {
						continue
					}
					switch st[g] {
					case 0:
						st[g] = 1
						fa[g] = acol[i]
					case 1:
						if acol[i] != fa[g] {
							st[g] = 2
						}
					}
				}
			}(bounds[s], bounds[s+1], st, fa)
		}
		wg.Wait()
		// Merge: unseen/single/mixed is a join-semilattice (unseen ⊑
		// single(a) ⊑ mixed, single(a) ⊔ single(b≠a) = mixed), so
		// shard order cannot matter. Sharded over the group space.
		runShards(workers, num, func(glo, ghi int) {
			for s := 0; s < workers-1; s++ {
				st := shardState[s*num : (s+1)*num]
				fa := shardFirst[s*num : (s+1)*num]
				for g := glo; g < ghi; g++ {
					if st[g] == 0 || state[g] == 2 {
						continue
					}
					switch {
					case state[g] == 0:
						state[g] = st[g]
						firstA[g] = fa[g]
					case st[g] == 2 || fa[g] != firstA[g]:
						state[g] = 2
					}
				}
			}
		})
	}
	runShards(workers, rows, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if g := gids[i]; g != noGroup && state[g] == 2 {
				sc.mark(i)
			}
		}
	})
	return nil
}

// constCol is one resolved constant of a pattern: the column vector and
// the ID the pattern's constant interned to.
type constCol struct {
	col []uint32
	id  uint32
}

func matchConsts(consts []constCol, i int) bool {
	for _, c := range consts {
		if c.col[i] != c.id {
			return false
		}
	}
	return true
}

// dictLenFor returns the dictionary size of the first wildcard column,
// the group-ID bound when that column alone keys the grouping.
func dictLenFor(e *relation.Encoded, xi []int, tpx []string) int {
	for j, p := range tpx {
		if p == cfd.Wildcard {
			_, dict := e.Column(xi[j])
			return dict.Len()
		}
	}
	return 1
}

// varColCard returns the dictionary cardinality of the k-th wildcard
// column (0-based among wildcards) — the fold's colID bound.
func varColCard(e *relation.Encoded, xi []int, tpx []string, k int) int {
	seen := 0
	for j, p := range tpx {
		if p != cfd.Wildcard {
			continue
		}
		if seen == k {
			_, dict := e.Column(xi[j])
			return dict.Len()
		}
		seen++
	}
	return 1
}

// Detect returns Vio(φ, d) as sorted tuple indices.
func Detect(d *relation.Relation, c *cfd.CFD) ([]int, error) {
	return defaultKernel.Detect(d, c, Opts{})
}

// DetectSet returns Vio(Σ, d) as sorted tuple indices.
func DetectSet(d *relation.Relation, cs []*cfd.CFD) ([]int, error) {
	return defaultKernel.DetectSet(d, cs, Opts{})
}

// DetectPi returns Vioπ(φ, d): distinct violating X-patterns
// null-padded to d's schema.
func DetectPi(d *relation.Relation, c *cfd.CFD) (*relation.Relation, error) {
	vio, err := Detect(d, c)
	if err != nil {
		return nil, err
	}
	return cfd.VioPi(d, c, vio)
}

// ViolationPatterns returns the distinct violating X-patterns of φ in d
// as bare X-tuples (no null padding); the compact wire form shipped
// back from coordinator sites.
func ViolationPatterns(d *relation.Relation, c *cfd.CFD) (*relation.Relation, error) {
	return defaultKernel.ViolationPatterns(d, c, Opts{})
}

// violationPatterns extracts the distinct X-patterns of the rows set in
// sc.bits. The seen-set keys on the rows' encoded column IDs
// (uvarint-encoded per component, so the fixed component count makes
// the key unambiguous) — value-exact, since rows of one relation share
// its dictionaries — and a string key plus the pattern tuple are
// materialized only for emitted patterns, never per violating row.
func (sc *detectScratch) violationPatterns(d *relation.Relation, c *cfd.CFD) (*relation.Relation, error) {
	xi, err := d.Schema().Indices(c.X)
	if err != nil {
		return nil, err
	}
	ps, err := d.Schema().Project("viopi_"+c.Name, c.X)
	if err != nil {
		return nil, err
	}
	out := relation.New(ps)
	e := d.Encoded()
	cols := make([][]uint32, len(xi))
	var seen map[string]struct{}
	key := make([]byte, 0, 8*len(xi))
	for wi, w := range sc.bits {
		if w == 0 {
			continue
		}
		if seen == nil {
			seen = make(map[string]struct{}, 16)
			for j, col := range xi {
				cols[j], _ = e.Column(col)
			}
		}
		base := wi << 6
		for w != 0 {
			i := base + bits.TrailingZeros64(w)
			w &= w - 1
			key = key[:0]
			for _, col := range cols {
				key = binary.AppendUvarint(key, uint64(col[i]))
			}
			if _, dup := seen[string(key)]; dup {
				continue
			}
			seen[string(key)] = struct{}{}
			out.MustAppend(d.Tuple(i).Project(xi))
		}
	}
	return out, nil
}
