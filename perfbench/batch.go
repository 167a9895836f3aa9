package main

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/blocking"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/eval"
	"repro/internal/linkage"
	"repro/internal/schema"
	"repro/internal/similarity"
)

// batchWeb is the batch-web corpus: 1,500 entities over 20
// heterogeneous sources, cut to 4,400 records.
var batchWeb = webShape{entities: 1500, sources: 20, records: 4400, heterogeneity: 0.5}

// batchConfig is the pipeline every batch job runs: linkage first,
// ACCUCOPY fusion (the copier-aware fuser, since a fifth of the
// sources copy), one worker per CPU.
func batchConfig(workers int) core.Config {
	return core.Config{Fuser: "accucopy", Workers: workers}
}

// batchResult is one job's output: the linkage, the fused values and
// the serving snapshot built from them.
type batchResult struct {
	rep  *core.Report
	snap *core.Snapshot
}

// hash identifies the job's output: clusters, fused values and served
// entities.
func (r batchResult) hash() string {
	return hashOf(func(w io.Writer) {
		writeClusters(w, r.rep.Clusters)
		writeFused(w, r.rep.Fusion)
		writeSnapshot(w, r.snap)
	})
}

// runJob is one untraced batch job: Pipeline.RunCtx then BuildSnapshot.
func runJob(ctx context.Context, p *core.Pipeline, d *data.Dataset) (batchResult, error) {
	rep, err := p.RunCtx(ctx, d)
	if err != nil {
		return batchResult{}, err
	}
	snap, err := core.BuildSnapshot(rep)
	return batchResult{rep, snap}, err
}

// runTracedJob runs the same job as runJob stage by stage through each
// layer's public entry points, with a span around every call, under a
// root span named "job". Its output must equal runJob's.
func runTracedJob(ctx context.Context, tr *tracer, cfg core.Config, d *data.Dataset) (batchResult, error) {
	job := tr.open(0, "job")
	defer tr.close(job)
	rep := &core.Report{}
	records := d.Records()
	workers := cfg.Workers

	// Blocking: title tokens purged at the default block cap, unioned
	// with identifier blocking, all in the engine's packed pair space.
	var cs *blocking.CandidateSet
	err := tr.do(job, "blocking.candidates", func() error {
		eng := blocking.NewEngineOpts(records, blocking.Opts{Workers: workers, Ctx: ctx})
		sets := []*blocking.CandidateSet{eng.Blocks(blocking.TokenKey("title")).Purge(100).CandidateSet()}
		sets = append(sets, eng.Blocks(blocking.AttrExactKey("pid")).CandidateSet())
		cs = blocking.UnionCandidates(sets...)
		for _, s := range sets {
			if s != cs {
				s.Close()
			}
		}
		return eng.Err()
	})
	if err != nil {
		return batchResult{}, fmt.Errorf("blocking: %w", err)
	}
	defer cs.Close()
	rep.Candidates, rep.Comparisons = cs.Len(), cs.Len()

	err = tr.do(job, "linkage.match", func() error {
		cmp := similarity.NewRecordComparator(similarity.FieldWeight{Attr: "title", Weight: 2, Metric: similarity.Jaccard})
		m := linkage.RuleMatcher{Exact: []string{"pid"}, Comparator: cmp, Threshold: 0.6}
		var err error
		rep.Matched, err = linkage.MatchPairsFromCtx(ctx, d, cs, m, workers, nil)
		return err
	})
	if err != nil {
		return batchResult{}, fmt.Errorf("matching: %w", err)
	}
	_ = tr.do(job, "linkage.cluster", func() error {
		ids := make([]string, len(records))
		for i, r := range records {
			ids[i] = r.ID
		}
		rep.Clusters = linkage.ConnectedComponents{}.Cluster(ids, rep.Matched)
		return nil
	})

	// Schema alignment with the clusters as instance evidence.
	var profiles []*schema.Profile
	_ = tr.do(job, "schema.profile", func() error {
		profiles = schema.Profiler{}.Build(d)
		return nil
	})
	var le *schema.LinkageEvidence
	_ = tr.do(job, "schema.evidence", func() error {
		le = schema.NewLinkageEvidence(d, rep.Clusters)
		return nil
	})
	err = tr.do(job, "schema.align", func() error {
		var err error
		rep.Schema, err = schema.Aligner{Threshold: 0.5, Ctx: ctx, Evidence: le.Blend}.Align(profiles)
		return err
	})
	if err != nil {
		return batchResult{}, fmt.Errorf("alignment: %w", err)
	}
	err = tr.do(job, "schema.transforms", func() error {
		var err error
		rep.Transforms, err = schema.DiscoverTransformsCtx(ctx, d, rep.Clusters, rep.Schema, 3)
		return err
	})
	if err != nil {
		return batchResult{}, fmt.Errorf("transforms: %w", err)
	}
	_ = tr.do(job, "schema.normalize", func() error {
		rep.Normalized = schema.NewNormalizer(rep.Schema, rep.Transforms).ApplyAll(d)
		return nil
	})

	// Fusion over (cluster, mediated attribute) claims.
	_ = tr.do(job, "fusion.claims", func() error {
		seen := map[string]bool{}
		var attrs []string
		for _, ma := range rep.Schema.Attrs {
			if !seen[ma.Name] {
				seen[ma.Name] = true
				attrs = append(attrs, ma.Name)
			}
		}
		rep.Claims = data.ClaimsFromClusters(rep.Normalized, rep.Clusters, attrs)
		return nil
	})
	err = tr.do(job, "fusion.fuse", func() error {
		f, err := core.BuildFuserCtx(ctx, cfg.Fuser, workers, nil)
		if err != nil {
			return err
		}
		rep.Fusion, err = f.Fuse(rep.Claims)
		return err
	})
	if err != nil {
		return batchResult{}, fmt.Errorf("fusion: %w", err)
	}

	var snap *core.Snapshot
	err = tr.do(job, "core.snapshot_build", func() error {
		var err error
		snap, err = core.BuildSnapshot(rep)
		return err
	})
	return batchResult{rep, snap}, err
}

// runBatch is the batch-web workload: a closed loop of batch jobs, one
// at a time, each RunCtx followed by BuildSnapshot over the same
// corpus. Every job's output must be identical.
func runBatch(ctx context.Context, b *bench) error {
	const setups = 5
	var (
		d      *data.Dataset
		truth  data.Clustering
		setupT []time.Duration
	)
	for i := 0; i < setups; i++ {
		d, truth = nil, nil // release the previous set-up before the next
		t0 := time.Now()
		var err error
		if d, err = genCorpus(b.seed, batchWeb); err != nil {
			return err
		}
		truth = d.GroundTruthClusters()
		setupT = append(setupT, time.Since(t0))
	}
	b.set("setup_s", median(secs(setupT)))
	b.note("records", d.NumRecords())
	b.note("sources", d.NumSources())

	cfg := batchConfig(b.workers)
	p := core.New(cfg)
	want := ""
	same := func(r batchResult, what string) {
		h := r.hash()
		if want == "" {
			want = h
		}
		b.check(h == want, "batch-web: %s output %s differs from the first job's %s", what, h, want)
	}

	// Untraced closed loop: the end-to-end numbers.
	var jobs, cpu []time.Duration
	var first batchResult
	end := time.Now().Add(b.phase())
	for len(jobs) < 3 || time.Now().Before(end) {
		t0, c0 := time.Now(), cpuTime()
		r, err := runJob(ctx, p, d)
		if err != nil {
			return fmt.Errorf("batch job: %w", err)
		}
		b.ops(1, 0)
		jobs = append(jobs, time.Since(t0))
		cpu = append(cpu, cpuTime()-c0)
		same(r, "job")
		if first.rep == nil {
			first = r
		}
	}
	f1 := eval.Clusters(first.rep.Clusters, truth)
	b.set("latency_p50_ms", median(ms(jobs)))
	b.note("latency_p90_ms", quantile(ms(jobs), 0.9))
	b.set("linkage_f1", f1.F1)
	b.note("jobs", len(jobs))
	b.note("cpu_ms_per_op", median(ms(cpu)))
	b.note("output_hash", want)
	if !b.traced {
		return nil
	}

	// Traced closed loop over the same corpus.
	var (
		traced      []time.Duration
		firstTraced batchResult
	)
	end = time.Now().Add(b.phase())
	for len(traced) < 3 || time.Now().Before(end) {
		t0 := time.Now()
		r, err := runTracedJob(ctx, b.tr, cfg, d)
		if err != nil {
			return fmt.Errorf("traced batch job: %w", err)
		}
		b.ops(1, 0)
		traced = append(traced, time.Since(t0))
		same(r, "traced job")
		if firstTraced.rep == nil {
			firstTraced = r
		}
	}
	b.note("traced_jobs", len(traced))
	b.recordBatchSteps(firstTraced)
	b.set("trace.overhead_pct", 100*(median(ms(traced))/median(ms(jobs))-1))
	b.recordLayerShares("job", traced)
	b.check(b.metrics["trace.coverage_pct"] >= 90,
		"batch-web: layer self times cover %.1f%% of the traced job time, under 90%%", b.metrics["trace.coverage_pct"])
	return nil
}

// recordBatchSteps records a traced job's work counters, and turns the
// batch spans recorded so far into per-step medians.
func (b *bench) recordBatchSteps(r batchResult) {
	b.set("blocking.candidates", float64(r.rep.Candidates))
	b.set("linkage.comparisons", float64(r.rep.Comparisons))
	b.set("linkage.match_yield", float64(len(r.rep.Matched))/float64(r.rep.Comparisons))
	b.set("schema.mediated_attrs", float64(len(r.rep.Schema.Attrs)))
	b.set("fusion.items", float64(len(r.rep.Fusion.Values)))
	steps := map[string]string{
		"blocking.candidates": "blocking.ms",
		"linkage.match":       "linkage.match_ms",
		"linkage.cluster":     "linkage.cluster_ms",
		"schema.profile":      "schema.profile_ms",
		"schema.evidence":     "schema.evidence_ms",
		"schema.align":        "schema.align_ms",
		"schema.transforms":   "schema.transforms_ms",
		"schema.normalize":    "schema.normalize_ms",
		"fusion.claims":       "fusion.claims_ms",
		"fusion.fuse":         "fusion.fuse_ms",
		"core.snapshot_build": "core.snapshot_build_ms",
	}
	for span, metric := range steps {
		b.set(metric, median(ms(b.tr.named(span))))
	}
}

// recordLayerShares reports, for the spans under roots named root,
// each layer's self time as a share of the root spans' total and the
// share of root time the layers cover; and, over every span of the
// run, each layer's heap allocations per call.
func (b *bench) recordLayerShares(root string, roots []time.Duration) {
	var total time.Duration
	for _, d := range roots {
		total += d
	}
	var covered time.Duration
	shares := map[string]float64{}
	for name, st := range b.tr.layers(root) {
		if name == root {
			continue
		}
		covered += st.self
		shares[name] = float64(st.self) / float64(total)
		b.set(name+".self_pct", 100*shares[name])
	}
	for name, st := range b.tr.layers("") {
		b.set(name+".allocs", float64(st.allocs)/float64(st.calls))
	}
	b.note("layer_self_share", shares)
	b.set("trace.coverage_pct", 100*float64(covered)/float64(total))
}
