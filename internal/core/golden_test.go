package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"sort"
	"testing"

	"repro/internal/data"
	"repro/internal/datagen"
)

// goldenDigest is the SHA-256 of writeGolden over the linkage-first
// ACCUCOPY pipeline on goldenWeb. Any change to alignment, transform
// discovery, linkage or fusion output moves it; a change that only
// makes a stage cheaper must leave it where it is.
const goldenDigest = "ba3d35c2501c065655b106a4465a65c5703d9462d441db7d56452bfc1854f3c1"

// goldenWeb is a heterogeneous web in the shape of the batch
// benchmark (20 sources, heterogeneity 0.5, a fifth of the sources
// copiers), at a size that keeps the test fast.
func goldenWeb() *datagen.Web {
	w := datagen.NewWorld(datagen.WorldConfig{Seed: 11, NumEntities: 120})
	return datagen.BuildWeb(w, datagen.SourceConfig{
		Seed: 12, NumSources: 20,
		HeadFraction: 0.3, TailCoverage: 0.2,
		CopierFraction: 0.2, DirtLevel: 1, Heterogeneity: 0.5,
	})
}

// writeGolden renders everything alignment feeds: the mediated schema,
// every membership probability, the transforms, the clusters and the
// fused values with their confidences. Floats print with %.17g so the
// rendering is exact.
func writeGolden(w io.Writer, rep *Report) {
	io.WriteString(w, rep.Schema.String())
	for i, ma := range rep.Schema.Attrs {
		members := make([]string, 0, len(ma.Members))
		p := map[string]float64{}
		for sa, prob := range ma.Members {
			members = append(members, sa.String())
			p[sa.String()] = prob
		}
		sort.Strings(members)
		for _, m := range members {
			fmt.Fprintf(w, "p[%d] %s=%.17g\n", i, m, p[m])
		}
	}
	for _, t := range rep.Transforms {
		fmt.Fprintf(w, "transform %s->%s scale=%.17g support=%d\n", t.From, t.To, t.Scale, t.Support)
	}
	for _, cl := range rep.Clusters {
		fmt.Fprintf(w, "cluster %v\n", cl)
	}
	items := make([]data.Item, 0, len(rep.Fusion.Values))
	for it := range rep.Fusion.Values {
		items = append(items, it)
	}
	sort.Slice(items, func(i, j int) bool {
		if items[i].Entity != items[j].Entity {
			return items[i].Entity < items[j].Entity
		}
		return items[i].Attr < items[j].Attr
	})
	for _, it := range items {
		fmt.Fprintf(w, "%s=%s conf=%.17g\n", it, rep.Fusion.Values[it].Key(), rep.Fusion.Confidence[it])
	}
}

// TestGoldenLinkageFirstDigest pins the linkage-first pipeline's
// output byte for byte.
func TestGoldenLinkageFirstDigest(t *testing.T) {
	web := goldenWeb()
	rep, err := New(Config{Fuser: "accucopy", Workers: 2}).Run(web.Dataset)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Transforms) == 0 || len(rep.Schema.Attrs) == 0 {
		t.Fatalf("golden web too small to exercise alignment: %d attrs, %d transforms",
			len(rep.Schema.Attrs), len(rep.Transforms))
	}
	h := sha256.New()
	writeGolden(h, rep)
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenDigest {
		t.Errorf("golden digest = %s, want %s", got, goldenDigest)
	}
}
