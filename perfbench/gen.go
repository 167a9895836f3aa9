package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"
	"sort"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/datagen"
	"repro/internal/fusion"
)

// webShape sizes a generated corpus: a three-category entity
// universe (camera, phone, tv) published by head sources (30%, each
// covering ~60% of the entities) and tail sources (~20% each), a fifth
// of all sources copiers. The generated web is then cut to exactly
// records records, so that every seed yields a corpus of the same
// size and the seed changes only its content.
type webShape struct {
	entities, sources, records int
	// heterogeneity is how often sources rename attributes and change
	// units (datagen.SourceConfig; negative means none).
	heterogeneity float64
}

// genCorpus generates the corpus for seed. The same seed and shape
// give the same dataset. Source coverage is random, so a seed's web
// can fall short of shape.records (about 3 seeds in 100 at the
// shapes used here); such a seed is generated again with a quarter
// more entities, until it yields enough records.
func genCorpus(seed int64, shape webShape) (*data.Dataset, error) {
	var web *datagen.Web
	var recs []*data.Record
	for entities, try := shape.entities, 0; len(recs) < shape.records; entities, try = entities+entities/4, try+1 {
		if try == 4 {
			return nil, fmt.Errorf("seed %d generated %d records, fewer than the %d kept", seed, len(recs), shape.records)
		}
		w := datagen.NewWorld(datagen.WorldConfig{Seed: seed, NumEntities: entities})
		web = datagen.BuildWeb(w, datagen.SourceConfig{
			Seed: seed + 1, NumSources: shape.sources,
			HeadFraction: 0.3, TailCoverage: 0.2,
			CopierFraction: 0.2, DirtLevel: 1, Heterogeneity: shape.heterogeneity,
		})
		recs = web.Dataset.Records()
	}
	keep := rand.New(rand.NewSource(seed + 2)).Perm(len(recs))[:shape.records]
	sort.Ints(keep)
	out := data.NewDataset()
	for _, s := range web.Dataset.Sources() {
		if err := out.AddSource(s); err != nil {
			return nil, err
		}
	}
	for _, i := range keep {
		if err := out.AddRecord(recs[i]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// sourceMetas indexes a dataset's sources by ID, as Stream.ApplyDeltas
// takes them.
func sourceMetas(d *data.Dataset) map[string]*data.Source {
	out := map[string]*data.Source{}
	for _, s := range d.Sources() {
		out[s.ID] = s
	}
	return out
}

// restrictTruth drops records absent from live from the ground-truth
// partition, so F1 is measured over exactly the live corpus.
func restrictTruth(truth data.Clustering, live *data.Dataset) data.Clustering {
	out := make(data.Clustering, 0, len(truth))
	for _, cl := range truth {
		keep := make([]string, 0, len(cl))
		for _, id := range cl {
			if live.Record(id) != nil {
				keep = append(keep, id)
			}
		}
		if len(keep) > 0 {
			out = append(out, keep)
		}
	}
	return out
}

// hashOf is a short SHA-256 over everything write writes.
func hashOf(write func(w io.Writer)) string {
	h := sha256.New()
	write(h)
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// writeClusters renders a clustering in its given order.
func writeClusters(w io.Writer, c data.Clustering) {
	for _, cl := range c {
		fmt.Fprintf(w, "cluster %v\n", []string(cl))
	}
}

// writeFused renders fused values and confidences in item order.
func writeFused(w io.Writer, res *fusion.Result) {
	items := make([]data.Item, 0, len(res.Values))
	for it := range res.Values {
		items = append(items, it)
	}
	sort.Slice(items, func(i, j int) bool {
		if items[i].Entity != items[j].Entity {
			return items[i].Entity < items[j].Entity
		}
		return items[i].Attr < items[j].Attr
	})
	for _, it := range items {
		fmt.Fprintf(w, "%s=%s conf=%.17g\n", it, res.Values[it].Key(), res.Confidence[it])
	}
}

// writeSnapshot renders every served entity: ID, title, records,
// sources and each fused value with its confidence.
func writeSnapshot(w io.Writer, snap *core.Snapshot) {
	for _, e := range snap.Entities() {
		fmt.Fprintf(w, "entity %s title=%q records=%v sources=%v\n", e.ID, e.Title, e.Records, e.Sources)
		attrs := make([]string, 0, len(e.Values))
		for a := range e.Values {
			attrs = append(attrs, a)
		}
		sort.Strings(attrs)
		for _, a := range attrs {
			fmt.Fprintf(w, "  %s=%s conf=%.17g\n", a, e.Values[a].Key(), e.Confidence[a])
		}
	}
}

func snapshotHash(snap *core.Snapshot) string {
	return hashOf(func(w io.Writer) { writeSnapshot(w, snap) })
}
