package schema

import (
	"context"
	"math"
	"sort"

	"repro/internal/data"
)

// Transform is a discovered value transformation between two source
// attributes: target ≈ Scale × source. Scale 1 means same units.
type Transform struct {
	From, To SourceAttr
	Scale    float64
	Support  int // co-linked record pairs the estimate is based on
}

// DiscoverTransforms inspects co-linked record pairs and, for every
// cross-source numeric attribute pair within the same mediated
// attribute, estimates the multiplicative unit conversion as the median
// value ratio. Pairs with a stable ratio far from 1 are unit
// conversions; ratio ≈ 1 confirms same units. minSupport defaults to 3.
func DiscoverTransforms(d *data.Dataset, clusters data.Clustering, ms *MediatedSchema, minSupport int) []Transform {
	// A background context never cancels, so the error is impossible.
	out, _ := DiscoverTransformsCtx(context.Background(), d, clusters, ms, minSupport)
	return out
}

// DiscoverTransformsCtx is DiscoverTransforms under a context:
// cancellation is observed between entity clusters.
func DiscoverTransformsCtx(ctx context.Context, d *data.Dataset, clusters data.Clustering, ms *MediatedSchema, minSupport int) ([]Transform, error) {
	if minSupport <= 0 {
		minSupport = 3
	}
	// One ratio per (pair, entity cluster): see NewLinkageEvidence for
	// why per-record-pair samples would overweight popular entities.
	// Each cluster member's aligned numeric fields are read once per
	// cluster, and the pairs are keyed by interned attribute IDs.
	type field struct {
		id, med int32 // interned source attribute, mediated attribute
		num     float64
	}
	type member struct {
		source     string
		start, end int // the member's fields in pool
	}
	type acc struct {
		from, to int32
		ratios   []float64
		lastCI   int // cluster of the last sample
	}
	ids := map[SourceAttr]int32{}
	var attrs []SourceAttr
	index := map[uint64]int32{} // from<<32 | to → accs index
	var accs []acc
	var members []member
	var pool []field
	for ci, cl := range clusters {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
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
				v := r.Fields[a]
				if v.Kind != data.KindNumber || v.Num == 0 {
					continue
				}
				sa := SourceAttr{r.SourceID, a}
				med, ok := ms.Of[sa]
				if !ok {
					continue
				}
				id, ok := ids[sa]
				if !ok {
					id = int32(len(attrs))
					ids[sa] = id
					attrs = append(attrs, sa)
				}
				pool = append(pool, field{id, int32(med), v.Num})
			}
			members = append(members, member{r.SourceID, start, len(pool)})
		}
		for i, ma := range members {
			for j, mb := range members {
				if i == j || ma.source == mb.source {
					continue
				}
				for _, fa := range pool[ma.start:ma.end] {
					for _, fb := range pool[mb.start:mb.end] {
						if fb.med != fa.med {
							continue
						}
						key := uint64(fa.id)<<32 | uint64(fb.id)
						ai, ok := index[key]
						if !ok {
							ai = int32(len(accs))
							index[key] = ai
							accs = append(accs, acc{from: fa.id, to: fb.id, lastCI: -1})
						}
						if a := &accs[ai]; a.lastCI != ci {
							a.ratios = append(a.ratios, fb.num/fa.num)
							a.lastCI = ci
						}
					}
				}
			}
		}
	}
	var out []Transform
	for _, a := range accs {
		rs := a.ratios
		if len(rs) < minSupport {
			continue
		}
		sort.Float64s(rs)
		med := rs[len(rs)/2]
		// Require ratio stability: median absolute deviation small
		// relative to the median.
		mad := medianAbsDev(rs, med)
		if med <= 0 || mad/math.Abs(med) > 0.1 {
			continue
		}
		out = append(out, Transform{From: attrs[a.from], To: attrs[a.to], Scale: med, Support: len(rs)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From.String() < out[j].From.String()
		}
		return out[i].To.String() < out[j].To.String()
	})
	return out, nil
}

func medianAbsDev(rs []float64, med float64) float64 {
	devs := make([]float64, len(rs))
	for i, r := range rs {
		devs[i] = math.Abs(r - med)
	}
	sort.Float64s(devs)
	return devs[len(devs)/2]
}

// Normalizer rewrites records into the mediated schema: local attribute
// names become mediated names, and numeric values are rescaled into the
// cluster's canonical units (the units of the cluster's reference
// attribute — its lexicographically first member).
type Normalizer struct {
	ms    *MediatedSchema
	scale map[SourceAttr]float64 // multiplicative factor into canonical units
}

// NewNormalizer picks, per mediated attribute, the reference member
// (always the lexicographically first member by "source/attr") and
// uses the discovered transforms toward it to rescale every member
// into the reference's units. Members without such a transform keep
// their values.
func NewNormalizer(ms *MediatedSchema, transforms []Transform) *Normalizer {
	n := &Normalizer{ms: ms, scale: map[SourceAttr]float64{}}
	// Reference member per cluster: lexicographically first (stable and
	// simple; transforms make the choice immaterial).
	refs := make([]SourceAttr, len(ms.Attrs))
	for i, ma := range ms.Attrs {
		refs[i] = firstMember(ma)
	}
	// scale[sa] converts sa's units into its cluster reference's units.
	for _, t := range transforms {
		idx, ok := ms.Of[t.From]
		if !ok {
			continue
		}
		// t: To ≈ Scale × From  ⇒  From-units → To-units factor = Scale.
		if refs[idx] == t.To {
			n.scale[t.From] = t.Scale
		}
	}
	return n
}

// Apply rewrites one record into the mediated schema. Unmapped
// attributes (including skip attributes like title/pid) pass through
// unchanged.
func (n *Normalizer) Apply(r *data.Record) *data.Record {
	out := data.NewRecord(r.ID, r.SourceID)
	out.EntityID = r.EntityID
	for _, a := range r.Attrs() {
		v := r.Fields[a]
		sa := SourceAttr{r.SourceID, a}
		idx, ok := n.ms.Of[sa]
		if !ok {
			out.Set(a, v)
			continue
		}
		if v.Kind == data.KindNumber {
			if s, ok := n.scale[sa]; ok && s != 0 {
				v = data.Number(v.Num * s)
			}
		}
		out.Set(n.ms.Attrs[idx].Name, v)
	}
	return out
}

// ApplyAll rewrites a whole dataset, preserving sources.
func (n *Normalizer) ApplyAll(d *data.Dataset) *data.Dataset {
	out := data.NewDataset()
	for _, s := range d.Sources() {
		_ = out.AddSource(s)
	}
	for _, r := range d.Records() {
		if err := out.AddRecord(n.Apply(r)); err != nil {
			// IDs are preserved from a valid dataset, so this cannot
			// happen; guard loudly in case of misuse.
			panic(err)
		}
	}
	return out
}
