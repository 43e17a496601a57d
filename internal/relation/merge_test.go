package relation

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
)

// mergeFixture is an owner fragment and two foreign fragments over the
// same schema, numbering overlapping values differently.
func mergeFixture() (local *Relation, foreign []*Relation) {
	s := MustSchema("M", []string{"k", "v"})
	local = MustFromRows(s, []string{"a", "1"}, []string{"b", "2"}, []string{"c", "1"})
	foreign = []*Relation{
		MustFromRows(s, []string{"c", "3"}, []string{"d", "1"}, []string{"a", "2"}),
		MustFromRows(s, []string{"e", "2"}, []string{"b", "4"}),
	}
	return local, foreign
}

func anchorsOf(r *Relation) []*Dict {
	out := make([]*Dict, r.Schema().Arity())
	for j := range out {
		_, out[j] = r.Encoded().Column(j)
	}
	return out
}

// allRows extracts every row of r through ProjectRows, sharing its
// dictionaries as a shipped block does.
func allRows(t *testing.T, r *Relation) *Relation {
	t.Helper()
	rows := make([]int, r.Len())
	for i := range rows {
		rows[i] = i
	}
	out, err := r.ProjectRows(r.Schema().Name()+"_ship", r.Schema().Attrs(), rows)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// wantMerged is the plain tuple concatenation of parts.
func wantMerged(parts ...*Relation) *Relation {
	out := New(parts[0].Schema())
	for _, p := range parts {
		for _, tp := range p.Tuples() {
			out.MustAppend(tp)
		}
	}
	return out
}

func checkMerged(t *testing.T, got, want *Relation) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("merged %d rows, want %d", got.Len(), want.Len())
	}
	for i := 0; i < want.Len(); i++ {
		if g, w := got.Tuple(i).String(), want.Tuple(i).String(); g != w {
			t.Fatalf("row %d = %s, want %s", i, g, w)
		}
	}
}

func TestMergeSpaceSecondMergeReusesTables(t *testing.T) {
	local, foreign := mergeFixture()
	ms := NewMergeSpace()
	merge := func(parts ...*Relation) MergeStats {
		t.Helper()
		out, err := ms.Merge(anchorsOf(local), parts...)
		if err != nil {
			t.Fatal(err)
		}
		checkMerged(t, out, wantMerged(parts...))
		return ms.Stats()
	}
	anchorValues := local.Encoded().ColumnDict(0).Len() + local.Encoded().ColumnDict(1).Len()
	// First sighting: the foreign dictionaries are translated privately,
	// leaving the union at the anchors; the local part needs no table.
	first := merge(allRows(t, local), allRows(t, foreign[0]), allRows(t, foreign[1]))
	if first.Builds != 0 || first.UnionValues != anchorValues {
		t.Fatalf("first merge: %+v, want no shared tables and a union of %d anchor values", first, anchorValues)
	}
	// Fresh extracts of the same fragments share their dictionaries, so
	// this sighting is a reuse: two foreign dictionaries per column, two
	// columns, four shared tables.
	second := merge(allRows(t, foreign[1]), allRows(t, local), allRows(t, foreign[0]))
	if second.Builds != 4 || second.Sources != 4 {
		t.Fatalf("second merge: %+v, want 4 shared tables built", second)
	}
	// From here on nothing is translated again and the union holds.
	if third := merge(allRows(t, foreign[0]), allRows(t, local), allRows(t, foreign[1])); third != second {
		t.Errorf("third merge changed the space: %+v -> %+v", second, third)
	}
}

func TestMergeSpaceReanchorsOnNewFragmentDictionary(t *testing.T) {
	local, foreign := mergeFixture()
	ms := NewMergeSpace()
	for i := 0; i < 2; i++ { // the second merge builds the shared tables
		if _, err := ms.Merge(anchorsOf(local), allRows(t, local), allRows(t, foreign[0])); err != nil {
			t.Fatal(err)
		}
	}
	// Inserting a new value chains a new dictionary for column k only.
	oldK, oldV := anchorsOf(local)[0], anchorsOf(local)[1]
	if _, err := local.Apply(Delta{Inserts: []Tuple{{"z", "1"}}}); err != nil {
		t.Fatal(err)
	}
	anchors := anchorsOf(local)
	if anchors[0] == oldK || anchors[1] != oldV {
		t.Fatal("fixture: expected only column k's dictionary to change")
	}
	before := ms.Stats().Builds
	parts := []*Relation{allRows(t, local), allRows(t, foreign[0])}
	out, err := ms.Merge(anchors, parts...)
	if err != nil {
		t.Fatal(err)
	}
	checkMerged(t, out, wantMerged(parts...))
	// Column k re-anchored, dropping its table: foreign[0]'s dictionary
	// is translated privately again. Column v kept its table.
	if got := ms.Stats().Builds - before; got != 0 {
		t.Errorf("re-anchored merge built %d shared tables, want 0", got)
	}
	if _, err := ms.Merge(anchors, parts...); err != nil {
		t.Fatal(err)
	}
	if got := ms.Stats().Builds - before; got != 1 {
		t.Errorf("re-anchoring rebuilt %d tables, want 1", got)
	}
	col, dict := out.Encoded().Column(0)
	if localCol, _ := parts[0].Encoded().Column(0); col[3] != localCol[3] || dict.Val(col[3]) != "z" {
		t.Error("local rows no longer map by identity after re-anchoring")
	}
}

func TestMergeSpaceConcurrentMerges(t *testing.T) {
	local, foreign := mergeFixture()
	ms := NewMergeSpace()
	anchors := anchorsOf(local)
	blocks := []*Relation{allRows(t, local), allRows(t, foreign[0]), allRows(t, foreign[1])}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				parts := []*Relation{blocks[0], blocks[1+g%2]}
				if i%3 == 0 {
					// A wire-shaped deposit: a fresh dictionary per call.
					fresh, err := FromColumns(local.Schema(),
						[][]string{{fmt.Sprintf("w%d", i), "a"}, {"1", "9"}},
						[][]uint32{{0, 1, 0}, {1, 0, 0}}, 3)
					if err != nil {
						errs <- err
						return
					}
					parts = append(parts, fresh)
				}
				out, err := ms.Merge(anchors, parts...)
				if err != nil {
					errs <- err
					return
				}
				want := wantMerged(parts...)
				for r := 0; r < want.Len(); r++ {
					if out.Tuple(r).String() != want.Tuple(r).String() {
						errs <- fmt.Errorf("goroutine %d merge %d: row %d = %s, want %s",
							g, i, r, out.Tuple(r), want.Tuple(r))
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestMergeSpaceDoesNotPinFreshDictionaries is the wire-deposit shape:
// every merge brings a freshly decoded dictionary, and the cache must
// neither keep those alive nor keep their tables.
func TestMergeSpaceDoesNotPinFreshDictionaries(t *testing.T) {
	local, _ := mergeFixture()
	ms := NewMergeSpace()
	anchors := anchorsOf(local)
	for i := 0; i < 1000; i++ {
		// Four values per column no other call ships.
		var ks, vs []string
		for v := 0; v < 4; v++ {
			ks = append(ks, fmt.Sprintf("w%d.%d", i, v))
			vs = append(vs, fmt.Sprintf("n%d.%d", i, v))
		}
		fresh, err := FromColumns(local.Schema(), [][]string{append(ks, "a"), vs},
			[][]uint32{{0, 1, 2, 3, 4}, {0, 1, 2, 3, 0}}, 5)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ms.Merge(anchors, allRows(t, local), fresh); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	st := ms.Stats()
	if st.Sources > 4 {
		t.Errorf("%d entries still cached after GC, want at most 4", st.Sources)
	}
	// Dictionaries seen once never publish their values.
	if anchorValues := local.Encoded().ColumnDict(0).Len() + local.Encoded().ColumnDict(1).Len(); st.Builds != 0 || st.UnionValues != anchorValues {
		t.Errorf("after 1000 fresh merges: %+v, want no shared tables and a union of %d anchor values", st, anchorValues)
	}
}

// TestMergeSpaceForgetsValuesOfDeadSources: reused source dictionaries
// publish their values into the union, and once those dictionaries are
// gone the union is re-anchored rather than kept growing.
func TestMergeSpaceForgetsValuesOfDeadSources(t *testing.T) {
	local, _ := mergeFixture()
	ms := NewMergeSpace()
	anchors := anchorsOf(local)
	for i := 0; i < 100; i++ {
		src := New(local.Schema())
		for v := 0; v < 20; v++ {
			src.MustAppend(Tuple{fmt.Sprintf("s%d.%d", i, v), fmt.Sprintf("t%d.%d", i, v)})
		}
		for twice := 0; twice < 2; twice++ {
			if _, err := ms.Merge(anchors, allRows(t, local), allRows(t, src)); err != nil {
				t.Fatal(err)
			}
		}
	}
	// If the collector ran mid-loop, a re-anchoring sweep between a
	// source's two merges forgets its first sighting, so not quite
	// every source need have published.
	if st := ms.Stats(); st.Builds < 100 {
		t.Fatalf("%+v, want most of the 200 source columns published", st)
	}
	runtime.GC()
	// Without re-anchoring the union would hold all 4000 source values;
	// the bound is the prune rule's slack over the live anchors.
	bound := 2*(anchors[0].Len()+anchors[1].Len()) + 2*1024
	if st := ms.Stats(); st.Sources != 0 || st.UnionValues > bound {
		t.Errorf("after the sources died: %+v, want no entries and at most %d union values", st, bound)
	}
}

// TestMergeSpaceDefersTablesForSparselyUsedSources: a small block over
// a large source dictionary is translated privately, ID by ID, until
// the rows translated reach a quarter of the dictionary; only then is
// the whole dictionary translated once.
func TestMergeSpaceDefersTablesForSparselyUsedSources(t *testing.T) {
	local, _ := mergeFixture()
	big := New(local.Schema())
	for v := 0; v < 400; v++ {
		big.MustAppend(Tuple{fmt.Sprintf("b%d", v), "1"})
	}
	ms := NewMergeSpace()
	anchors := anchorsOf(local)
	for i := 0; i < 100; i++ {
		one, err := big.ProjectRows("one", big.Schema().Attrs(), []int{i})
		if err != nil {
			t.Fatal(err)
		}
		out, err := ms.Merge(anchors, allRows(t, local), one)
		if err != nil {
			t.Fatal(err)
		}
		checkMerged(t, out, wantMerged(allRows(t, local), one))
		// 400 values: the table comes with the 100th single-row merge.
		// Column v's dictionary holds one value, so its table comes on
		// the second sighting.
		want := 0
		switch {
		case i == 99:
			want = 2
		case i >= 1:
			want = 1
		}
		if got := ms.Stats().Builds; got != want {
			t.Fatalf("after merge %d: %d tables built, want %d", i+1, got, want)
		}
	}
}
