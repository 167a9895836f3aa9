// Package schema implements the schema-alignment stage for the Variety
// dimension: per-source attribute profiling, name- and instance-based
// attribute matching, linkage-aware matching (using record-linkage
// results as alignment evidence, the tutorial's pipeline reordering for
// identifier-rich domains), construction of a probabilistic mediated
// schema, probabilistic source-to-mediated mappings, and discovery of
// numeric value transformations (unit conversions).
package schema

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/data"
	"repro/internal/tokenize"
)

// SourceAttr identifies one attribute of one source.
type SourceAttr struct {
	Source string
	Attr   string
}

// String renders "source/attr".
func (sa SourceAttr) String() string { return sa.Source + "/" + sa.Attr }

// Profile summarises one source attribute's observed values.
type Profile struct {
	SourceAttr
	Count     int // records carrying the attribute
	Kinds     map[data.ValueKind]int
	Values    map[string]int // value key → frequency (capped)
	NumCount  int
	NumMean   float64
	NumM2     float64        // Welford accumulator
	TokenFreq map[string]int // tokens across string values
	maxValues int
	// names is the name-similarity table shared by the profiles of one
	// Profiler.Build, and nameID this profile's row in it; nil for
	// profiles built by hand.
	names  *nameTable
	nameID int
}

// nameTable holds NameSimilarity for every ordered pair of the distinct
// attribute names of one Profiler.Build. The evidence depends on the
// two names only, and a web carries far fewer distinct names than
// profiles (44 against 370 in the batch benchmark's web), so alignment
// reads each name pair's score here instead of recomputing it for
// every profile pair. The table is immutable once built.
type nameTable struct {
	names []string
	sim   []float64 // sim[i*len(names)+j] = nameSimilarity(names[i], names[j])
}

// shareNameTable interns the profiles' attribute names, scores every
// ordered pair of them and hands the table to every profile.
func shareNameTable(ps []*Profile) {
	ids := map[string]int{}
	for _, p := range ps {
		ids[p.Attr] = 0
	}
	t := &nameTable{names: make([]string, 0, len(ids))}
	for nm := range ids {
		t.names = append(t.names, nm)
	}
	sort.Strings(t.names)
	for i, nm := range t.names {
		ids[nm] = i
	}
	n := len(t.names)
	t.sim = make([]float64, n*n)
	for i, a := range t.names {
		for j, b := range t.names {
			t.sim[i*n+j] = nameSimilarity(a, b)
		}
	}
	for _, p := range ps {
		p.names, p.nameID = t, ids[p.Attr]
	}
}

// lookup returns the tabled similarity of a's and b's names, or false
// when the table does not cover both profiles as they are now.
func (t *nameTable) lookup(a, b *Profile) (float64, bool) {
	if t == nil || b.names != t || t.names[a.nameID] != a.Attr || t.names[b.nameID] != b.Attr {
		return 0, false
	}
	return t.sim[a.nameID*len(t.names)+b.nameID], true
}

// NumStd returns the standard deviation of numeric values.
func (p *Profile) NumStd() float64 {
	if p.NumCount < 2 {
		return 0
	}
	return math.Sqrt(p.NumM2 / float64(p.NumCount-1))
}

// DominantKind returns the most frequent value kind.
func (p *Profile) DominantKind() data.ValueKind {
	best, bestN := data.KindNull, -1
	// Deterministic: iterate kinds in fixed order.
	for _, k := range []data.ValueKind{data.KindString, data.KindNumber, data.KindBool, data.KindTime} {
		if n := p.Kinds[k]; n > bestN {
			best, bestN = k, n
		}
	}
	return best
}

// observe folds one value into the profile.
func (p *Profile) observe(v data.Value) {
	p.Count++
	p.Kinds[v.Kind]++
	if len(p.Values) < p.maxValues {
		p.Values[v.Key()]++
	} else if _, seen := p.Values[v.Key()]; seen {
		p.Values[v.Key()]++
	}
	switch v.Kind {
	case data.KindNumber:
		p.NumCount++
		delta := v.Num - p.NumMean
		p.NumMean += delta / float64(p.NumCount)
		p.NumM2 += delta * (v.Num - p.NumMean)
	case data.KindString:
		for _, tok := range tokenize.Words(v.Str) {
			p.TokenFreq[tok]++
		}
	}
}

// Profiler builds profiles for every (source, attribute) in a dataset.
type Profiler struct {
	// MaxValuesPerAttr caps the per-attribute distinct-value histogram.
	// Default 512.
	MaxValuesPerAttr int
	// SkipAttrs lists attribute names excluded from alignment (e.g. the
	// generator's bookkeeping fields). Defaults to {"title","pid","epoch"}.
	SkipAttrs []string
}

// DefaultSkipAttrs are attributes never aligned: record-level text and
// identifiers handled by linkage, not schema alignment.
var DefaultSkipAttrs = []string{"title", "pid", "epoch"}

// Build profiles the dataset and returns profiles sorted by source then
// attribute. The profiles share one table of name similarities over
// their distinct attribute names.
func (pf Profiler) Build(d *data.Dataset) []*Profile {
	maxV := pf.MaxValuesPerAttr
	if maxV <= 0 {
		maxV = 512
	}
	skip := map[string]bool{}
	skipList := pf.SkipAttrs
	if skipList == nil {
		skipList = DefaultSkipAttrs
	}
	for _, a := range skipList {
		skip[a] = true
	}
	byKey := map[SourceAttr]*Profile{}
	for _, r := range d.Records() {
		for _, a := range r.Attrs() {
			if skip[a] {
				continue
			}
			key := SourceAttr{Source: r.SourceID, Attr: a}
			p := byKey[key]
			if p == nil {
				p = &Profile{
					SourceAttr: key,
					Kinds:      map[data.ValueKind]int{},
					Values:     map[string]int{},
					TokenFreq:  map[string]int{},
					maxValues:  maxV,
				}
				byKey[key] = p
			}
			p.observe(r.Fields[a])
		}
	}
	out := make([]*Profile, 0, len(byKey))
	for _, p := range byKey {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Source != out[j].Source {
			return out[i].Source < out[j].Source
		}
		return out[i].Attr < out[j].Attr
	})
	shareNameTable(out)
	return out
}

// validateProfiles guards the matchers against empty input.
func validateProfiles(ps []*Profile) error {
	if len(ps) == 0 {
		return fmt.Errorf("schema: no attribute profiles (empty dataset?)")
	}
	return nil
}
