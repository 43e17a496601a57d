package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"distcfd/internal/cfd"
	"distcfd/internal/partition"
	"distcfd/internal/relation"
)

func testSite(t *testing.T) *Site {
	t.Helper()
	s := relation.MustSchema("T", []string{"id", "a", "b", "c"}, "id")
	frag := relation.MustFromRows(s,
		[]string{"1", "x", "p", "m"},
		[]string{"2", "x", "q", "m"},
		[]string{"3", "y", "p", "n"},
		[]string{"4", "z", "p", "n"},
	)
	return NewSite(0, frag, relation.True())
}

func testSpec(t *testing.T) *BlockSpec {
	t.Helper()
	spec, err := NewBlockSpec([]string{"a"}, [][]string{{"x"}, {"y"}})
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestSiteBasics(t *testing.T) {
	s := testSite(t)
	if s.ID() != 0 {
		t.Error("ID")
	}
	if n, _ := s.NumTuples(); n != 4 {
		t.Errorf("NumTuples = %d", n)
	}
	p, _ := s.Predicate()
	if !p.IsTrue() {
		t.Errorf("Predicate = %v", p)
	}
}

func TestSiteSigmaStatsAndExtract(t *testing.T) {
	s := testSite(t)
	spec := testSpec(t)
	stats, err := s.SigmaStats(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if stats[0] != 2 || stats[1] != 1 {
		t.Errorf("stats = %v", stats)
	}
	blk, err := s.ExtractBlock(context.Background(), spec, 0, []string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	if blk.Len() != 2 || blk.Schema().Arity() != 2 {
		t.Errorf("block = %v", blk)
	}
	match, err := s.ExtractMatching(context.Background(), spec, []string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	if match.Len() != 3 { // x,x,y match; z does not
		t.Errorf("matching = %d rows", match.Len())
	}
	if _, err := s.ExtractBlock(context.Background(), spec, 9, []string{"a"}); err == nil {
		t.Error("out-of-range block accepted")
	}
	if _, err := s.ExtractBlock(context.Background(), spec, 0, []string{"zz"}); err == nil {
		t.Error("unknown attribute accepted")
	}
}

func TestSiteExtractBlocksBatch(t *testing.T) {
	s := testSite(t)
	spec := testSpec(t)
	batches, err := s.ExtractBlocksBatch(context.Background(), spec, []string{"a", "b"}, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if batches[0].Len() != 2 || batches[1].Len() != 1 {
		t.Errorf("batches = %d, %d", batches[0].Len(), batches[1].Len())
	}
	single, err := s.ExtractBlock(context.Background(), spec, 0, []string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	if !batches[0].SameTuples(single) {
		t.Error("batch extraction differs from single extraction")
	}
	if _, err := s.ExtractBlocksBatch(context.Background(), spec, []string{"a"}, []int{5}); err == nil {
		t.Error("out-of-range block accepted")
	}
}

func TestSiteDepositAndDetectTask(t *testing.T) {
	s := testSite(t)
	spec := testSpec(t)
	c := cfd.MustParse(`t: [a] -> [b] : (x || _), (y || _)`)

	// Deposit a conflicting tuple for block 0 (a=x with third b-value).
	shipSchema := relation.MustSchema("T_ship", []string{"a", "b"})
	dep := relation.MustFromRows(shipSchema, []string{"x", "r"})
	task := "test-task"
	if err := s.Deposit(context.Background(), BlockTask(task, 0), dep, ""); err != nil {
		t.Fatal(err)
	}
	pats, err := s.DetectAssignedSingle(context.Background(), task, spec, []int{0, 1}, c)
	if err != nil {
		t.Fatal(err)
	}
	// a=x group has b ∈ {p,q,r} → violation; a=y group single tuple.
	wantPatterns(t, "detect-assigned", pats, "x")

	// Deposits are consumed: a second detection sees only local data,
	// where a=x is still violating (p vs q) — but after consuming, the
	// deposit is gone, so r no longer contributes.
	pats2, err := s.DetectAssignedSingle(context.Background(), task, spec, []int{0, 1}, c)
	if err != nil {
		t.Fatal(err)
	}
	wantPatterns(t, "detect-assigned-2", pats2, "x")
}

func TestSiteDetectTaskModes(t *testing.T) {
	s := testSite(t)
	spec := testSpec(t)
	c := cfd.MustParse(`t: [a] -> [b] : (x || _), (y || _)`)

	// BlockAllMatching (CTR coordinator mode): local matching + nothing.
	pats, err := s.DetectTask(context.Background(), "t1", LocalInput{Spec: spec, Block: BlockAllMatching}, []*cfd.CFD{c})
	if err != nil {
		t.Fatal(err)
	}
	wantPatterns(t, "all-matching", pats[0], "x")

	// BlockNone with deposits only.
	shipSchema := relation.MustSchema("T_ship", []string{"a", "b"})
	dep := relation.MustFromRows(shipSchema,
		[]string{"y", "1"}, []string{"y", "2"})
	if err := s.Deposit(context.Background(), "t2", dep, ""); err != nil {
		t.Fatal(err)
	}
	pats, err = s.DetectTask(context.Background(), "t2", LocalInput{Block: BlockNone}, []*cfd.CFD{c})
	if err != nil {
		t.Fatal(err)
	}
	wantPatterns(t, "deposit-only", pats[0], "y")

	// Empty task → empty result.
	pats, err = s.DetectTask(context.Background(), "t3", LocalInput{Block: BlockNone}, []*cfd.CFD{c})
	if err != nil {
		t.Fatal(err)
	}
	if pats[0].Len() != 0 {
		t.Errorf("empty task returned %v", pats[0])
	}

	// Errors.
	if _, err := s.DetectTask(context.Background(), "t4", LocalInput{Block: BlockAllMatching}, []*cfd.CFD{c}); err == nil {
		t.Error("BlockAllMatching without spec accepted")
	}
	if _, err := s.DetectTask(context.Background(), "t5", LocalInput{Spec: spec, Block: 0}, nil); err == nil {
		t.Error("no CFDs accepted")
	}
}

func TestSiteDetectConstantsLocal(t *testing.T) {
	s := testSite(t)
	// Constant CFD: a=x ⇒ c=ZZZ — both x tuples violate (c=m).
	c := cfd.MustParse(`k: [a] -> [c] : (x || ZZZ)`)
	pats, err := s.DetectConstantsLocal(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	wantPatterns(t, "constants", pats, "x")
	// Variable CFD has no constant units → empty.
	v := cfd.MustParse(`v: [a] -> [c]`)
	pats, err = s.DetectConstantsLocal(context.Background(), v)
	if err != nil {
		t.Fatal(err)
	}
	if pats.Len() != 0 {
		t.Errorf("variable CFD constants = %v", pats)
	}
}

func TestSiteMineFrequent(t *testing.T) {
	s := testSite(t)
	ps, err := s.MineFrequent(context.Background(), []string{"a"}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	// a=x appears twice out of 4 → support 0.5 → kept.
	if len(ps) != 1 || ps[0].Vals[0] != "x" || ps[0].RelSupport != 0.5 {
		t.Errorf("mined = %v", ps)
	}
	if _, err := s.MineFrequent(context.Background(), []string{"a"}, 0); err == nil {
		t.Error("theta=0 accepted")
	}
}

func TestBlockTask(t *testing.T) {
	if BlockTask("run", 3) != "run/b3" {
		t.Errorf("BlockTask = %q", BlockTask("run", 3))
	}
	if BlockTask("run", 3) == BlockTask("run", 4) {
		t.Error("distinct blocks must have distinct keys")
	}
}

func TestClusterConstruction(t *testing.T) {
	cl := fig1bCluster(t)
	if cl.N() != 3 {
		t.Errorf("N = %d", cl.N())
	}
	if cl.Schema().Name() != "EMP" {
		t.Errorf("schema = %v", cl.Schema())
	}
	if cl.Site(1).ID() != 1 {
		t.Error("site ID mismatch")
	}
	// Site ID order enforced.
	s := relation.MustSchema("T", []string{"a"})
	frag := relation.MustFromRows(s, []string{"1"})
	bad := []SiteAPI{NewSite(1, frag, relation.True())}
	if _, err := NewCluster(s, bad); err == nil {
		t.Error("misnumbered site accepted")
	}
	if _, err := NewCluster(s, nil); err == nil {
		t.Error("empty cluster accepted")
	}
}

// TestMergeSpaceReanchorsAfterApply runs detection, then applies a
// delta whose inserts grow every fragment's dictionaries, and checks
// that the next run rebuilds translations against the new dictionaries
// and still reports exactly the oracle's patterns over the assembled
// instance.
func TestMergeSpaceReanchorsAfterApply(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(12))
	d := randomRelation(rng, 80)
	h, err := partition.Uniform(d, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := FromHorizontal(h)
	if err != nil {
		t.Fatal(err)
	}
	c := cfd.MustParse(`m: [a, b] -> [c]`)
	check := func(label string) {
		t.Helper()
		all := relation.New(cl.Schema())
		for i := 0; i < cl.N(); i++ {
			for _, tp := range cl.Site(i).(*Site).Fragment().Tuples() {
				all.MustAppend(tp)
			}
		}
		vio, err := cfd.NaiveViolations(all, c)
		if err != nil {
			t.Fatal(err)
		}
		want := oraclePatterns(t, all, c, vio)
		for _, algo := range []Algorithm{CTRDetect, PatDetectS, PatDetectRT} {
			res, err := DetectSingle(cl, c, algo, Options{})
			if err != nil {
				t.Fatalf("%s %v: %v", label, algo, err)
			}
			if got := patternsOf(res.Patterns); !sameSet(got, want) {
				t.Fatalf("%s %v:\n got %v\nwant %v", label, algo, keys(got), keys(want))
			}
		}
	}
	check("before apply")
	builds := func() int {
		n := 0
		for i := 0; i < cl.N(); i++ {
			n += cl.Site(i).(*Site).merge.Stats().Builds
		}
		return n
	}
	before := builds()
	if before == 0 {
		t.Fatal("no site merged anything; the fixture does not exercise the merge space")
	}
	// New values in every column of every fragment: each fragment
	// dictionary chains a new layer, so every union must re-anchor.
	for i := 0; i < cl.N(); i++ {
		ins := []relation.Tuple{
			{fmt.Sprintf("n%d", i), "a9", "b9", "c9", "d9"},
			{fmt.Sprintf("m%d", i), "a9", "b9", fmt.Sprintf("c%d", 7+i), "d9"},
		}
		if _, err := cl.ApplyDelta(ctx, i, relation.Delta{Inserts: ins, Deletes: []int{0}}); err != nil {
			t.Fatal(err)
		}
	}
	check("after apply")
	if builds() <= before {
		t.Error("no translation rebuilt after the fragment dictionaries changed")
	}
}
