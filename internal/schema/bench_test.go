package schema

import (
	"testing"

	"repro/internal/data"
	"repro/internal/datagen"
)

// benchWeb is a heterogeneous web in the batch benchmark's shape: three
// categories over 20 sources, heterogeneity 0.5, a fifth of the
// sources copiers. The generator's entity partition stands in for a
// linkage result.
func benchWeb(b *testing.B) (*data.Dataset, data.Clustering) {
	b.Helper()
	w := datagen.NewWorld(datagen.WorldConfig{Seed: 11, NumEntities: 600})
	web := datagen.BuildWeb(w, datagen.SourceConfig{
		Seed: 12, NumSources: 20,
		HeadFraction: 0.3, TailCoverage: 0.2,
		CopierFraction: 0.2, DirtLevel: 1, Heterogeneity: 0.5,
	})
	return web.Dataset, web.Dataset.GroundTruthClusters()
}

// BenchmarkAlign times average-linkage alignment under blended linkage
// evidence, with the profiles and the evidence built beforehand.
func BenchmarkAlign(b *testing.B) {
	d, clusters := benchWeb(b)
	profiles := Profiler{}.Build(d)
	le := NewLinkageEvidence(d, clusters)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (Aligner{Evidence: le.Blend}).Align(profiles); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLinkageEvidence times the co-linked record-pair scan that
// builds linkage evidence.
func BenchmarkLinkageEvidence(b *testing.B) {
	d, clusters := benchWeb(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewLinkageEvidence(d, clusters)
	}
}
