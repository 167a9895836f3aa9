package schema

import (
	"math"
	"sort"

	"repro/internal/data"
	"repro/internal/similarity"
)

// MatchEvidence scores the correspondence between two source attributes
// from one kind of evidence; scores live in [0,1].
type MatchEvidence func(a, b *Profile) float64

// NameSimilarity compares attribute names with token Jaccard softened
// by Jaro-Winkler (handles "weight" vs "item weight" vs "wt"). Profiles
// from one Profiler.Build read the score from their shared name table;
// others compute it.
func NameSimilarity(a, b *Profile) float64 {
	if s, ok := a.names.lookup(a, b); ok {
		return s
	}
	return nameSimilarity(a.Attr, b.Attr)
}

// nameSimilarity is NameSimilarity over two attribute names.
func nameSimilarity(a, b string) float64 {
	j := similarity.Jaccard(a, b)
	jw := similarity.JaroWinkler(a, b)
	// Monge-Elkan is directional ("weight" ⊂ "item weight" scores high
	// one way only); symmetrise with max so evidence is order-free.
	me := math.Max(
		similarity.MongeElkan(a, b, nil),
		similarity.MongeElkan(b, a, nil),
	)
	return math.Max(j, math.Max(0.8*jw, 0.9*me))
}

// ValueOverlap compares the observed value distributions: Jaccard over
// distinct value keys for categorical attributes, distribution overlap
// for numeric ones, kind mismatch scores 0.
func ValueOverlap(a, b *Profile) float64 {
	ka, kb := a.DominantKind(), b.DominantKind()
	if ka != kb {
		return 0
	}
	if ka == data.KindNumber {
		return numericOverlap(a, b)
	}
	inter, union := 0, 0
	for v := range a.Values {
		if _, ok := b.Values[v]; ok {
			inter++
		}
	}
	union = len(a.Values) + len(b.Values) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

// numericOverlap measures how much two numeric attributes' ranges
// overlap, via a Gaussian approximation: 1 when means coincide relative
// to pooled spread, decaying to 0.
func numericOverlap(a, b *Profile) float64 {
	if a.NumCount == 0 || b.NumCount == 0 {
		return 0
	}
	sa, sb := a.NumStd(), b.NumStd()
	spread := math.Max(sa+sb, 1e-9)
	z := math.Abs(a.NumMean-b.NumMean) / spread
	return math.Exp(-z * z / 2)
}

// TokenOverlap compares the token distributions of string values —
// complementary to exact value overlap when formats differ slightly.
func TokenOverlap(a, b *Profile) float64 {
	if len(a.TokenFreq) == 0 || len(b.TokenFreq) == 0 {
		return 0
	}
	inter := 0
	for tok := range a.TokenFreq {
		if _, ok := b.TokenFreq[tok]; ok {
			inter++
		}
	}
	union := len(a.TokenFreq) + len(b.TokenFreq) - inter
	return float64(inter) / float64(union)
}

// Combined blends the evidence functions with fixed weights: names are
// suggestive, instances decisive. Attributes from the same source never
// match (within-source schemas are assumed consistent, as in the
// tutorial's local-homogeneity observation).
func Combined(a, b *Profile) float64 {
	if a.Source == b.Source {
		return 0
	}
	name := NameSimilarity(a, b)
	val := ValueOverlap(a, b)
	tok := TokenOverlap(a, b)
	inst := math.Max(val, tok)
	return 0.4*name + 0.6*inst
}

// LinkageEvidence builds an instance-level evidence function from a
// record clustering: two attributes correspond when, on records linked
// to the same entity, they frequently carry equal (or numerically
// proportional — handled by transform discovery) values. This is the
// "linkage before alignment" move the tutorial advocates for
// identifier-rich domains.
type LinkageEvidence struct {
	// pairs holds the co-linked statistics of every cross-source
	// attribute pair seen on a co-linked record pair, keyed by pairKey.
	pairs map[[2]SourceAttr]pairEvidence
}

// pairEvidence is one attribute pair's statistics over co-linked
// record pairs: agree / total is its agreement rate.
type pairEvidence struct {
	agree, total float64
	// stability ∈ [0,1]: for numeric attribute pairs, how consistent
	// the value ratio is across co-linked records. A stable ratio far
	// from 1 is a unit conversion — still a correspondence.
	stability float64
}

// NewLinkageEvidence scans intra-cluster record pairs and accumulates
// cross-source attribute agreement statistics. Each cluster member's
// sorted, skip-filtered fields are read once per cluster, and the
// counters are keyed by interned attribute IDs.
func NewLinkageEvidence(d *data.Dataset, clusters data.Clustering) *LinkageEvidence {
	skip := map[string]bool{}
	for _, a := range DefaultSkipAttrs {
		skip[a] = true
	}
	// Intern every aligned attribute of a co-linked record. IDs follow
	// pairKey order, so the smaller ID of a pair is its pairKey first.
	ids := map[SourceAttr]int32{}
	for _, cl := range clusters {
		if len(cl) < 2 {
			continue
		}
		for _, id := range cl {
			if r := d.Record(id); r != nil {
				for a := range r.Fields {
					if !skip[a] {
						ids[SourceAttr{r.SourceID, a}] = 0
					}
				}
			}
		}
	}
	attrs := make([]SourceAttr, 0, len(ids))
	for sa := range ids {
		attrs = append(attrs, sa)
	}
	sort.Slice(attrs, func(i, j int) bool { return attrLess(attrs[i], attrs[j]) })
	for i, sa := range attrs {
		ids[sa] = int32(i)
	}

	// One ratio sample per (attribute pair, entity cluster): multiple
	// record pairs about the same entity share the same true ratio, so
	// counting them separately would let a single popular entity fake
	// cross-entity ratio stability between unrelated attributes.
	type field struct {
		id int32 // interned source attribute
		v  data.Value
	}
	type member struct {
		source     string
		start, end int // the member's fields in pool
	}
	// acc accumulates one attribute pair, lo < hi in pairKey order.
	type acc struct {
		lo, hi       int32
		agree, total float64
		// ratios holds one hi/lo value ratio per entity cluster, the
		// first 64 clusters only; lastCI is the cluster of the last.
		ratios []float64
		lastCI int
	}
	index := map[uint64]int32{} // lo<<32 | hi → accs index
	var accs []acc
	var members []member
	var pool []field
	for ci, cl := range clusters {
		if len(cl) < 2 {
			continue
		}
		members, pool = members[:0], pool[:0]
		for _, id := range cl {
			r := d.Record(id)
			if r == nil {
				continue
			}
			start := len(pool)
			for _, a := range r.Attrs() {
				if !skip[a] {
					pool = append(pool, field{ids[SourceAttr{r.SourceID, a}], r.Fields[a]})
				}
			}
			members = append(members, member{r.SourceID, start, len(pool)})
		}
		for i := 0; i < len(members); i++ {
			for j := i + 1; j < len(members); j++ {
				ma, mb := members[i], members[j]
				if ma.source == mb.source {
					continue
				}
				for _, fa := range pool[ma.start:ma.end] {
					va := fa.v
					for _, fb := range pool[mb.start:mb.end] {
						vb := fb.v
						if va.Kind != vb.Kind {
							continue
						}
						lo, hi := fa.id, fb.id
						if hi < lo {
							lo, hi = hi, lo
						}
						key := uint64(lo)<<32 | uint64(hi)
						ai, ok := index[key]
						if !ok {
							ai = int32(len(accs))
							index[key] = ai
							accs = append(accs, acc{lo: lo, hi: hi, lastCI: -1})
						}
						a := &accs[ai]
						a.total++
						if valuesAgree(va, vb) {
							a.agree++
						}
						if va.Kind == data.KindNumber && va.Num != 0 && vb.Num != 0 {
							r := vb.Num / va.Num
							if lo != fa.id {
								r = 1 / r // keep ratio oriented lo→hi
							}
							if a.lastCI != ci && len(a.ratios) < 64 {
								a.ratios = append(a.ratios, r)
								a.lastCI = ci
							}
						}
					}
				}
			}
		}
	}

	le := &LinkageEvidence{pairs: make(map[[2]SourceAttr]pairEvidence, len(accs))}
	for _, a := range accs {
		le.pairs[[2]SourceAttr{attrs[a.lo], attrs[a.hi]}] = pairEvidence{
			agree: a.agree, total: a.total, stability: ratioStability(a.ratios),
		}
	}
	return le
}

// ratioStability scores how consistent a pair's per-cluster value
// ratios are: 1 when fully stable (median absolute deviation 0),
// dissolving to 0 at 20% spread; 0 below three samples. It sorts rs.
func ratioStability(rs []float64) float64 {
	if len(rs) < 3 {
		return 0
	}
	sort.Float64s(rs)
	med := rs[len(rs)/2]
	if med <= 0 {
		return 0
	}
	devs := make([]float64, len(rs))
	for i, r := range rs {
		devs[i] = math.Abs(r-med) / med
	}
	sort.Float64s(devs)
	mad := devs[len(devs)/2]
	s := 1 - mad/0.2
	if s < 0 {
		s = 0
	}
	return s
}

// valuesAgree is a tolerant equality: exact for non-numbers, 2% relative
// tolerance for numbers (absorbing jitter but not unit changes).
func valuesAgree(a, b data.Value) bool {
	if a.Kind == data.KindNumber && b.Kind == data.KindNumber {
		denom := math.Max(math.Abs(a.Num), math.Abs(b.Num))
		if denom == 0 {
			return true
		}
		return math.Abs(a.Num-b.Num)/denom <= 0.02
	}
	if a.Kind == data.KindString && b.Kind == data.KindString {
		// Jaro-Winkler of a string with itself is exactly 1.
		return a.Str == b.Str || similarity.JaroWinkler(a.Str, b.Str) >= 0.93
	}
	return a.Equal(b)
}

// pairKey orders an attribute pair by source, then attribute.
func pairKey(a, b SourceAttr) [2]SourceAttr {
	if attrLess(b, a) {
		a, b = b, a
	}
	return [2]SourceAttr{a, b}
}

// attrLess orders source attributes by source, then attribute.
func attrLess(a, b SourceAttr) bool {
	return a.Source < b.Source || (a.Source == b.Source && a.Attr < b.Attr)
}

// Score implements MatchEvidence semantics over profiles: the observed
// agreement rate on co-linked records, 0 when below the support floor.
func (le *LinkageEvidence) Score(a, b *Profile) float64 {
	pe := le.pairs[pairKey(a.SourceAttr, b.SourceAttr)]
	if pe.total < 3 { // insufficient support
		return 0
	}
	s := pe.agree / pe.total
	// Ratio-stable numeric pairs correspond even when raw values never
	// agree (unit conversions).
	if pe.stability > s {
		s = pe.stability
	}
	return s
}

// Blend combines linkage evidence with the name+instance Combined
// evidence. The two are complementary rather than averaged: strong
// linkage agreement (or ratio stability) lifts the score even when
// names and distributions look unrelated (unit conversions, opaque
// renames), while strong linkage *disagreement* on well-supported pairs
// vetoes correspondences that names and distributions suggest
// spuriously (distinct numeric attributes with similar ranges).
func (le *LinkageEvidence) Blend(a, b *Profile) float64 {
	if a.Source == b.Source {
		return 0
	}
	c := Combined(a, b)
	pe := le.pairs[pairKey(a.SourceAttr, b.SourceAttr)]
	if pe.total < 5 {
		return c // insufficient co-linked support: fall back
	}
	l := pe.agree / pe.total
	if pe.stability > l {
		l = pe.stability
	}
	return le.blendWith(l, c)
}

// BlendAgreementOnly is Blend without the ratio-stability channel —
// the ablation arm of experiment E17.
func (le *LinkageEvidence) BlendAgreementOnly(a, b *Profile) float64 {
	if a.Source == b.Source {
		return 0
	}
	c := Combined(a, b)
	pe := le.pairs[pairKey(a.SourceAttr, b.SourceAttr)]
	if pe.total < 5 {
		return c
	}
	return le.blendWith(pe.agree/pe.total, c)
}

// blendWith applies the boost/veto policy to a linkage-evidence level l
// and a Combined fallback c.
func (le *LinkageEvidence) blendWith(l, c float64) float64 {
	switch {
	case l >= 0.4:
		// Mid-accuracy sources agree on a true correspondence well
		// below 100% of the time, so already 40% agreement on
		// co-linked records is strong evidence (chance agreement
		// between unrelated attributes is far lower).
		boosted := 0.45 + 0.55*l
		if boosted > c {
			return boosted
		}
		return c
	case l < 0.15:
		if c > 0.3 {
			return 0.3
		}
		return c
	default:
		return c
	}
}
