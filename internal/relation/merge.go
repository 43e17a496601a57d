package relation

import (
	"fmt"
	"sync"
	"weak"
)

// MergeSpace is a coordinator-owned ID space for merging shipped
// blocks with the local one. Each attribute keeps a union dictionary
// anchored on the owner's own fragment dictionary for it, so a local
// extract (which shares that dictionary) maps into the union by
// identity. A foreign source dictionary that keeps coming back — in-
// process deposits share their sender's fragment dictionary — gets a
// srcID → unionID translation table, built by hashing each of its
// values once and reused by every later merge, so steady-state merges
// hash no strings at all.
//
// Until then a source is translated privately: only the IDs a part
// uses, into an overlay over the union snapshot that lives as long as
// the merged relation and never grows the union. Wire deposits decode
// fresh dictionaries on every call, so they stay on this path and pay
// one translation per call. A table is built on a repeat sighting once
// the rows translated privately reach a quarter of the dictionary's
// size, so building it costs at most a few times what was already
// spent — a small block over a huge dictionary never pays for the
// whole dictionary up front.
//
// The union only grows through Chain overlays, so a snapshot handed to
// a merged relation is never interned into again. Sources are keyed by
// weak pointers: the cache never keeps a source dictionary alive, and
// entries whose dictionary was collected are pruned as the cache grows.
// When the owner's fragment dictionary changes identity (a delta
// interned new values, or a rebuild), the attribute's union is
// re-anchored and its old union and tables are dropped.
//
// A MergeSpace is safe for concurrent use.
type MergeSpace struct {
	mu   sync.Mutex
	cols map[string]*unionColumn
}

// NewMergeSpace returns an empty merge space.
func NewMergeSpace() *MergeSpace {
	return &MergeSpace{cols: make(map[string]*unionColumn)}
}

// MergeStats describes a merge space's current state; tests use it to
// check what a merge cost.
type MergeStats struct {
	// UnionValues is the total number of values over all union
	// dictionaries.
	UnionValues int
	// Sources is the number of cached source dictionaries, with or
	// without a translation table, that are still alive.
	Sources int
	// Builds counts every translation table built so far.
	Builds int
}

// minPrune is the cache size below which dead sources are not swept.
const minPrune = 32

// unionColumn is one attribute's union dictionary and the sources
// translated into it.
type unionColumn struct {
	mu     sync.Mutex
	anchor *Dict // the owner's dictionary the union extends; nil if none
	dict   *Dict // current union snapshot; frozen once handed out
	srcs   map[weak.Pointer[Dict]]*mergeSource
	// pruneAt is the source count that triggers the next dead-entry
	// sweep.
	pruneAt int
	builds  int
}

// mergeSource is what a union column knows about one source dictionary.
type mergeSource struct {
	table []uint32 // srcID → union ID; nil until built
	rows  int      // rows translated privately so far
}

// Merge returns every part's rows, in order, under parts[0]'s schema
// (parts must share its arity). anchors[j], when non-nil, is the
// owner's current dictionary for parts[0]'s attribute j; parts sharing
// it contribute their IDs unchanged. The merged columns are sparse over
// the union snapshots, like ProjectRows extracts.
func (m *MergeSpace) Merge(anchors []*Dict, parts ...*Relation) (*Relation, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("relation: Merge with no inputs")
	}
	schema := parts[0].schema
	arity := schema.Arity()
	if len(anchors) != arity {
		return nil, fmt.Errorf("relation: Merge got %d anchors for arity %d", len(anchors), arity)
	}
	total := 0
	for _, p := range parts {
		if p.schema.Arity() != arity {
			return nil, fmt.Errorf("relation: cannot merge %s (arity %d) with %s (arity %d)",
				p.schema.Name(), p.schema.Arity(), schema.Name(), arity)
		}
		total += p.Len()
	}
	dicts := make([]*Dict, arity)
	cols := make([][]uint32, arity)
	srcCols := make([][]uint32, len(parts))
	srcDicts := make([]*Dict, len(parts))
	tables := make([][]uint32, len(parts))
	private := make([]bool, len(parts))
	for j, attr := range schema.Attrs() {
		for k, p := range parts {
			srcCols[k], srcDicts[k] = p.Encoded().Column(j)
		}
		snap := m.column(attr).resolve(anchors[j], srcDicts, srcCols, tables, private)
		// The snapshot is frozen, so private translations into an
		// overlay over it run outside the column's lock.
		var over *Dict
		col := make([]uint32, 0, total)
		for k, src := range srcCols {
			switch {
			case private[k]:
				if over == nil {
					over = Chain(snap)
				}
				rm := newRemapper(over, srcDicts[k], len(src))
				for _, id := range src {
					col = append(col, rm.remap(srcDicts[k], id))
				}
			case tables[k] == nil:
				col = append(col, src...)
			default:
				t := tables[k]
				for _, id := range src {
					col = append(col, t[id])
				}
			}
		}
		dicts[j], cols[j] = snap, col
		if over != nil {
			dicts[j] = over
		}
	}
	return FromSharedColumns(schema, dicts, cols, total)
}

// Stats sweeps sources whose dictionary has been collected and reports
// the space's state.
func (m *MergeSpace) Stats() MergeStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	var st MergeStats
	for _, u := range m.cols {
		u.mu.Lock()
		u.prune()
		st.UnionValues += u.dict.Len()
		st.Sources += len(u.srcs)
		st.Builds += u.builds
		u.mu.Unlock()
	}
	return st
}

// column returns attr's union column, creating it on first use.
func (m *MergeSpace) column(attr string) *unionColumn {
	m.mu.Lock()
	defer m.mu.Unlock()
	u := m.cols[attr]
	if u == nil {
		u = &unionColumn{}
		m.cols[attr] = u
	}
	return u
}

// resolve re-anchors the union if the owner's dictionary changed and
// decides, for every part k (dictionary src[k], IDs cols[k]), how its
// IDs reach the returned union snapshot: unchanged (tables[k] nil), by
// the cached table tables[k], or — private[k] — by a translation the
// caller makes of just the IDs it uses.
func (u *unionColumn) resolve(anchor *Dict, src []*Dict, cols [][]uint32, tables [][]uint32, private []bool) *Dict {
	u.mu.Lock()
	defer u.mu.Unlock()
	if u.dict == nil || u.anchor != anchor {
		u.reset(anchor)
	}
	if len(u.srcs) >= u.pruneAt {
		// Sweep before resolving anything: prune may re-anchor, which
		// must not strand tables already resolved for this merge.
		u.prune()
		u.pruneAt = max(minPrune, 2*len(u.srcs))
	}
	for k, d := range src {
		tables[k], private[k] = nil, false
		if d == anchor && anchor != nil {
			continue
		}
		key := weak.Make(d)
		s := u.srcs[key]
		// A source dictionary never changes length (growth chains a new
		// one), so the length check only guards against misuse.
		if s != nil && s.table != nil && len(s.table) == d.Len() {
			tables[k] = s.table
			continue
		}
		if s == nil {
			u.srcs[key] = &mergeSource{rows: len(cols[k])}
			private[k] = true
			continue
		}
		if s.rows += len(cols[k]); 4*s.rows < d.Len() {
			private[k] = true
			continue
		}
		s.table = u.build(d)
		tables[k] = s.table
	}
	// Taken after every build above, so private overlays chained on it
	// cannot collide with the IDs those builds assigned.
	return u.dict
}

// reset anchors the union on anchor (an empty root when nil) and drops
// every source translated into the previous union.
func (u *unionColumn) reset(anchor *Dict) {
	u.anchor = anchor
	u.dict = anchor
	if u.dict == nil {
		u.dict = NewDict()
	}
	u.flattenIfDeep()
	u.srcs = make(map[weak.Pointer[Dict]]*mergeSource)
	u.pruneAt = minPrune
}

// build translates every value of src into the union, hashing each
// once. Values the union lacks go into one fresh overlay, so the
// snapshot earlier merges hold is never written.
func (u *unionColumn) build(src *Dict) []uint32 {
	t := make([]uint32, src.Len())
	d := u.dict
	for id, v := range src.Vals() {
		if uid, ok := d.Lookup(v); ok {
			t[id] = uid
			continue
		}
		if d == u.dict {
			d = Chain(u.dict)
		}
		t[id] = d.ID(v)
	}
	u.dict = d
	u.flattenIfDeep()
	u.builds++
	return t
}

// flattenIfDeep keeps the union one layer short of the chain-depth
// bound, so a private overlay chained on it never has to flatten the
// whole union on every merge. Flattening keeps every ID.
func (u *unionColumn) flattenIfDeep() {
	if u.dict.depth >= maxChainDepth {
		u.dict = u.dict.flatten()
	}
}

// prune drops the sources whose dictionary was collected. If what is
// left no longer accounts for most of the union — values a dead
// source's table put there — the union is re-anchored too, so a
// long-lived owner's union stays bounded by its live sources.
func (u *unionColumn) prune() {
	live := 0
	if u.anchor != nil {
		live = u.anchor.Len()
	}
	for k, s := range u.srcs {
		if k.Value() == nil {
			delete(u.srcs, k)
			continue
		}
		live += len(s.table)
	}
	if u.dict.Len() > 2*live+1024 {
		u.reset(u.anchor)
	}
}
