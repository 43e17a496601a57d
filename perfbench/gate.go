package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"strings"

	"distcfd"
	"distcfd/internal/cfd"
	"distcfd/internal/engine"
	"distcfd/internal/relation"
)

// The correctness gate. At set-up every CFD's violation patterns must
// equal engine.ViolationPatterns over the whole instance; after that
// every op's fingerprint must equal the warm-up's.

// fingerprint is the part of a Result that must never change between
// runs over the same data: the violation patterns, the paper's
// shipment count and its modeled response time.
type fingerprint struct {
	Violations    uint64
	ShippedTuples int64
	ModeledTime   uint64 // math.Float64bits: compared exactly
}

func (f fingerprint) String() string {
	return fmt.Sprintf("violations %016x, shipped %d tuples, modeled %v",
		f.Violations, f.ShippedTuples, math.Float64frombits(f.ModeledTime))
}

// patternKeys returns r's tuples as sorted, unit-separated strings.
func patternKeys(r *relation.Relation) []string {
	if r == nil {
		return nil
	}
	keys := make([]string, 0, r.Len())
	for _, t := range r.Tuples() {
		keys = append(keys, strings.Join(t, "\x1f"))
	}
	sort.Strings(keys)
	return keys
}

func fingerprintOf(res *distcfd.Result) fingerprint {
	h := fnv.New64a()
	for i, r := range res.PerCFD {
		fmt.Fprintf(h, "cfd %d\x1e", i)
		for _, k := range patternKeys(r) {
			h.Write([]byte(k))
			h.Write([]byte{0x1e})
		}
	}
	return fingerprint{
		Violations:    h.Sum64(),
		ShippedTuples: res.ShippedTuples,
		ModeledTime:   math.Float64bits(res.ModeledTime),
	}
}

// reference holds, per CFD, the sorted violation-pattern keys of the
// whole instance.
type reference [][]string

func referenceOf(data *relation.Relation, rules []*cfd.CFD) (reference, error) {
	ref := make(reference, len(rules))
	for i, c := range rules {
		vp, err := engine.ViolationPatterns(data, c)
		if err != nil {
			return nil, fmt.Errorf("reference for %s: %w", c.Name, err)
		}
		ref[i] = patternKeys(vp)
	}
	return ref, nil
}

// check compares a result's per-CFD patterns with the reference.
func (ref reference) check(res *distcfd.Result) error {
	if len(res.PerCFD) != len(ref) {
		return fmt.Errorf("result has %d CFDs, reference %d", len(res.PerCFD), len(ref))
	}
	for i, want := range ref {
		got := patternKeys(res.PerCFD[i])
		if len(got) != len(want) {
			return fmt.Errorf("CFD %s: %d violation patterns, reference has %d", res.CFDs[i].Name, len(got), len(want))
		}
		for j := range got {
			if got[j] != want[j] {
				return fmt.Errorf("CFD %s: pattern %q, reference has %q", res.CFDs[i].Name, got[j], want[j])
			}
		}
	}
	return nil
}

// fingerprintGate checks every op against the warm-up's fingerprint.
type fingerprintGate struct{ want fingerprint }

func (g fingerprintGate) check(res *distcfd.Result) error {
	if got := fingerprintOf(res); got != g.want {
		return fmt.Errorf("fingerprint mismatch: got %v, warm-up had %v", got, g.want)
	}
	return nil
}
