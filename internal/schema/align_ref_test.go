package schema

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// referenceAlign is the plain average-linkage aligner: every round it
// recomputes the average linkage of every active cluster pair from the
// evidence matrix and merges the best pair at or above the threshold,
// the last such pair in row-major order on ties. Align caches those
// scores; the two must produce the same schema bit for bit.
func referenceAlign(profiles []*Profile, evidence MatchEvidence, threshold float64) *MediatedSchema {
	sim, _ := evidenceMatrix(context.Background(), profiles, evidence)
	n := len(profiles)
	clusters := make([][]int, n)
	for i := range clusters {
		clusters[i] = []int{i}
	}
	active := make([]bool, n)
	for i := range active {
		active[i] = true
	}
	avgLink := func(a, b []int) float64 {
		var sum float64
		cnt := 0
		for _, i := range a {
			for _, j := range b {
				if profiles[i].Source == profiles[j].Source {
					return -1
				}
				sum += sim[i][j]
				cnt++
			}
		}
		if cnt == 0 {
			return 0
		}
		return sum / float64(cnt)
	}
	for {
		bestI, bestJ, bestS := -1, -1, threshold
		for i := 0; i < n; i++ {
			if !active[i] {
				continue
			}
			for j := i + 1; j < n; j++ {
				if !active[j] {
					continue
				}
				if s := avgLink(clusters[i], clusters[j]); s >= bestS {
					bestI, bestJ, bestS = i, j, s
				}
			}
		}
		if bestI < 0 {
			break
		}
		clusters[bestI] = append(clusters[bestI], clusters[bestJ]...)
		active[bestJ] = false
	}
	var groups [][]int
	for ci := 0; ci < n; ci++ {
		if active[ci] {
			groups = append(groups, clusters[ci])
		}
	}
	return newMediatedSchema(profiles, sim, groups)
}

// assertSameSchema fails unless got and want list the same attributes
// in the same order, with the same names, members and bitwise-equal
// membership probabilities.
func assertSameSchema(t *testing.T, label string, got, want *MediatedSchema) {
	t.Helper()
	if len(got.Attrs) != len(want.Attrs) {
		t.Fatalf("%s: %d attrs, reference %d", label, len(got.Attrs), len(want.Attrs))
	}
	for i, ga := range got.Attrs {
		wa := want.Attrs[i]
		if ga.Name != wa.Name || len(ga.Members) != len(wa.Members) {
			t.Fatalf("%s: attr %d = %s with %d members, reference %s with %d",
				label, i, ga.Name, len(ga.Members), wa.Name, len(wa.Members))
		}
		for sa, p := range wa.Members {
			gp, ok := ga.Members[sa]
			if !ok || math.Float64bits(gp) != math.Float64bits(p) {
				t.Fatalf("%s: attr %d member %v p=%v (present %v), reference %v", label, i, sa, gp, ok, p)
			}
		}
	}
	if len(got.Of) != len(want.Of) {
		t.Fatalf("%s: Of covers %d, reference %d", label, len(got.Of), len(want.Of))
	}
	for sa, idx := range want.Of {
		if got.Of[sa] != idx {
			t.Fatalf("%s: Of[%v] = %d, reference %d", label, sa, got.Of[sa], idx)
		}
	}
}

// randomProfiles builds n hand-made profiles over a few sources with
// colliding attribute names, and a quantized evidence function over
// them: scores are multiples of 1/q, so average linkages tie exactly
// and fall exactly on the threshold, and few sources make same-source
// vetoes common.
func randomProfiles(r *rand.Rand, n, sources, q int) ([]*Profile, MatchEvidence) {
	seen := map[SourceAttr]bool{}
	var ps []*Profile
	for len(ps) < n {
		sa := SourceAttr{
			Source: fmt.Sprintf("s%d", r.Intn(sources)),
			Attr:   fmt.Sprintf("a%d", r.Intn(n)),
		}
		if seen[sa] {
			continue
		}
		seen[sa] = true
		ps = append(ps, &Profile{SourceAttr: sa})
	}
	sort.Slice(ps, func(i, j int) bool { return attrLess(ps[i].SourceAttr, ps[j].SourceAttr) })
	score := map[[2]SourceAttr]float64{}
	for i := range ps {
		for j := i + 1; j < len(ps); j++ {
			score[pairKey(ps[i].SourceAttr, ps[j].SourceAttr)] = float64(r.Intn(q+1)) / float64(q)
		}
	}
	return ps, func(a, b *Profile) float64 { return score[pairKey(a.SourceAttr, b.SourceAttr)] }
}

// TestAlignMatchesReference: the cached aligner equals the reference
// aligner over many random profile sets, quantized evidence and
// thresholds, including thresholds that scores hit exactly.
func TestAlignMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 400; trial++ {
		n := 1 + r.Intn(40)
		q := []int{2, 3, 4, 7, 10}[r.Intn(5)]
		ps, ev := randomProfiles(r, n, 1+r.Intn(6), q)
		th := float64(1+r.Intn(q)) / float64(q)
		if r.Intn(3) == 0 {
			th = 0.05 + 0.9*r.Float64()
		}
		got, err := (Aligner{Evidence: ev, Threshold: th}).Align(ps)
		if err != nil {
			t.Fatal(err)
		}
		assertSameSchema(t, fmt.Sprintf("trial %d (n=%d q=%d th=%v)", trial, n, q, th), got, referenceAlign(ps, ev, th))
	}
}

// TestAlignMatchesReferenceOnWebs: the same identity on generated webs
// under the evidence functions the pipeline uses.
func TestAlignMatchesReferenceOnWebs(t *testing.T) {
	for _, seed := range []int64{3, 5, 8} {
		d := propWeb(seed).Dataset
		profiles := Profiler{}.Build(d)
		le := NewLinkageEvidence(d, d.GroundTruthClusters())
		for _, ev := range []struct {
			name string
			fn   MatchEvidence
		}{{"combined", Combined}, {"blend", le.Blend}} {
			for _, th := range []float64{0.35, 0.5, 0.65} {
				got, err := (Aligner{Evidence: ev.fn, Threshold: th}).Align(profiles)
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("seed %d %s th=%v", seed, ev.name, th)
				assertSameSchema(t, label, got, referenceAlign(profiles, ev.fn, th))
			}
		}
	}
}

// TestNameTableMatchesDirect: the name table built by Profiler.Build
// holds exactly the direct name similarity of every name pair, and
// profiles outside a table (built by hand, mixed with built ones, or
// renamed copies) compute it directly.
func TestNameTableMatchesDirect(t *testing.T) {
	profiles := Profiler{}.Build(propWeb(5).Dataset)
	table := profiles[0].names
	if table == nil {
		t.Fatal("built profiles carry no name table")
	}
	distinct := map[string]bool{}
	for _, p := range profiles {
		distinct[p.Attr] = true
		if p.names != table {
			t.Fatalf("%v does not share the build's name table", p.SourceAttr)
		}
	}
	if len(table.names) != len(distinct) {
		t.Fatalf("table has %d names, profiles %d", len(table.names), len(distinct))
	}
	n := len(table.names)
	for i, a := range table.names {
		for j, b := range table.names {
			if math.Float64bits(table.sim[i*n+j]) != math.Float64bits(nameSimilarity(a, b)) {
				t.Fatalf("table[%q,%q] = %v, direct %v", a, b, table.sim[i*n+j], nameSimilarity(a, b))
			}
		}
	}
	for _, a := range profiles {
		for _, b := range profiles {
			if got, want := NameSimilarity(a, b), nameSimilarity(a.Attr, b.Attr); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("NameSimilarity(%v,%v) = %v, direct %v", a.SourceAttr, b.SourceAttr, got, want)
			}
		}
	}

	byHand := func(attr string) *Profile { return &Profile{SourceAttr: SourceAttr{"h", attr}} }
	renamed := *profiles[0]
	renamed.Attr = "item weight"
	others := []*Profile{byHand("weight"), byHand("colour"), byHand(profiles[1].Attr), &renamed}
	for _, a := range append(others, profiles[:3]...) {
		for _, b := range others {
			for _, pair := range [][2]*Profile{{a, b}, {b, a}} {
				got := NameSimilarity(pair[0], pair[1])
				want := nameSimilarity(pair[0].Attr, pair[1].Attr)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("NameSimilarity(%q,%q) = %v, direct %v", pair[0].Attr, pair[1].Attr, got, want)
				}
			}
		}
	}
}
