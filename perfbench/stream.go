package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/eval"
	"repro/internal/fusion"
	"repro/internal/source"
)

// The stream-churn shape. See README.md for why these values.
var streamWeb = webShape{entities: 1100, sources: 12, records: 1800, heterogeneity: -1}

const (
	streamUpdateRate  = 0.30
	streamDeleteRate  = 0.15
	streamLive        = 1000                   // live records when the timed epochs start
	streamEpochDeltas = 8                      // deltas per timed epoch
	streamInterval    = 250 * time.Millisecond // open-loop epoch release interval
	streamReadRate    = 20.0                   // reads per second beside the epochs
)

// publishSink forwards the stream's published snapshots to the
// service once it is running.
type publishSink struct{ svc *httpService }

func (p *publishSink) publish(s *core.Snapshot) {
	if p.svc != nil {
		p.svc.srv.Publish(s)
	}
}

// churnStream is one set-up stream: the churn log up to the timed
// epochs already applied and published, the service it publishes
// into, and the epochs still to come.
type churnStream struct {
	st     *core.Stream
	sink   *publishSink
	metas  map[string]*data.Source
	truth  data.Clustering
	epochs []source.DeltaEpoch // released on the open-loop schedule
	drain  time.Duration       // source layer: draining the delta log

	// deleted holds every record deleted so far and not upserted
	// again; no published snapshot may serve one of them.
	deleted map[string]bool

	// Traced applies: deltas applied one at a time and the linker
	// comparisons they cost.
	deltas, deltaComparisons int
}

func (c *churnStream) stop() error { return c.sink.svc.stop() }

// streamSetup generates the corpus and its churn log, drains the log
// through the source layer, applies it up to the point where
// streamLive records are live as one set-up epoch, publishes once and
// starts the service. The next timed×streamEpochDeltas deltas become
// the timed epochs.
func streamSetup(ctx context.Context, b *bench, timed int) (*churnStream, error) {
	d, err := genCorpus(b.seed, streamWeb)
	if err != nil {
		return nil, err
	}
	fleet, totals, _ := source.ChurnSources(d, source.ChurnConfig{
		Seed: b.seed, UpdateRate: streamUpdateRate, DeleteRate: streamDeleteRate,
	})
	var log []source.Delta
	id := b.tr.open(0, "source.drain")
	t0 := time.Now()
	str, err := source.NewDeltaStreamer(ctx, fleet, source.StreamConfig{Totals: totals})
	if err != nil {
		return nil, err
	}
	for ep := range str.C {
		log = append(log, ep.Deltas...)
	}
	str.Close()
	drain := time.Since(t0)
	b.tr.close(id)
	if err := str.Err(); err != nil {
		return nil, err
	}
	c := &churnStream{sink: &publishSink{}, metas: sourceMetas(d), truth: d.GroundTruthClusters(),
		drain: drain, deleted: map[string]bool{}}

	split, live := 0, map[string]bool{}
	for split < len(log) && len(live) < streamLive {
		if dl := log[split]; dl.Op == source.OpDelete {
			delete(live, dl.ID)
		} else {
			live[dl.ID] = true
		}
		split++
	}
	if need := split + timed*streamEpochDeltas; len(live) < streamLive || need > len(log) {
		return nil, fmt.Errorf("churn log of %d deltas is too short: %d needed", len(log), need)
	}
	epochs := cutEpochs(d, log[:split+timed*streamEpochDeltas], split)
	c.epochs = epochs[1:]
	if c.st, err = core.NewStream(core.StreamConfig{Workers: b.workers}, c.sink.publish); err != nil {
		return nil, err
	}
	if err := c.st.ApplyDeltas(c.metas, epochs[0]); err != nil {
		return nil, err
	}
	snap, err := c.st.Publish(ctx)
	if err != nil {
		return nil, err
	}
	if c.sink.svc, err = startService(snap); err != nil {
		return nil, err
	}
	c.checkDeleted(b, epochs[0])
	return c, nil
}

// cutEpochs cuts the delta log into one set-up epoch of its first
// split deltas followed by epochs of streamEpochDeltas deltas each,
// numbered in order, each carrying the per-source log positions it
// advances to.
func cutEpochs(d *data.Dataset, log []source.Delta, split int) []source.DeltaEpoch {
	cursors := map[string]int{}
	var out []source.DeltaEpoch
	for from := 0; from < len(log); {
		to := from + streamEpochDeltas
		if from == 0 {
			to = split
		}
		ep := source.DeltaEpoch{Seq: len(out), Deltas: log[from:to], Cursors: map[string]int{}}
		for _, dl := range ep.Deltas {
			src := d.Record(dl.ID).SourceID
			cursors[src]++
			ep.Cursors[src] = cursors[src]
		}
		out = append(out, ep)
		from = to
	}
	return out
}

// epochTimes are the per-epoch timings of one pass over the schedule.
type epochTimes struct {
	fresh, wait []time.Duration // due → Publish returned; due → started
	roots       []time.Duration // traced: the epoch root spans
	work        []time.Duration // traced: the apply and publish spans
}

// runEpochs releases the first n timed epochs on the open-loop
// schedule, each ApplyDeltas then Publish, and checks after each
// publish that no deleted record is still served. With a tracer it
// applies one delta at a time and rebuilds the view from public pieces
// before each Publish, under spans.
func (c *churnStream) runEpochs(ctx context.Context, b *bench, tr *tracer, n int) (epochTimes, error) {
	var out epochTimes
	start := time.Now().Add(10 * time.Millisecond)
	for k, ep := range c.epochs[:n] {
		due := start.Add(time.Duration(k) * streamInterval)
		sleepUntil(due)
		out.wait = append(out.wait, time.Since(due))
		var err error
		if tr == nil {
			if err = c.st.ApplyDeltas(c.metas, ep); err == nil {
				_, err = c.st.Publish(ctx)
			}
		} else {
			var root, work time.Duration
			root, work, err = c.tracedEpoch(ctx, b, tr, ep)
			out.roots = append(out.roots, root)
			out.work = append(out.work, work)
		}
		if err != nil {
			return out, fmt.Errorf("epoch %d: %w", ep.Seq, err)
		}
		out.fresh = append(out.fresh, time.Since(due))
		b.ops(1, 0)
		c.checkDeleted(b, ep)
	}
	return out, nil
}

// checkDeleted adds ep's deletions to the records deleted so far,
// drops those ep upserts again, and fails the run if any record
// deleted so far is part of a served entity after the publish that
// followed ep.
func (c *churnStream) checkDeleted(b *bench, ep source.DeltaEpoch) {
	for _, dl := range ep.Deltas {
		if dl.Op == source.OpDelete {
			c.deleted[dl.ID] = true
		} else {
			delete(c.deleted, dl.ID)
		}
	}
	for _, e := range c.sink.svc.srv.Snapshot().Entities() {
		for _, id := range e.Records {
			b.check(!c.deleted[id], "stream-churn: deleted record %s still served in %s after epoch %d", id, e.ID, ep.Seq)
		}
	}
}

// tracedEpoch applies ep one delta at a time, rebuilds the view from
// public pieces, publishes, and checks that the rebuilt view is what
// Publish published. It returns the duration of the epoch root span
// and the summed duration of its apply and publish spans: the work an
// untraced epoch does.
func (c *churnStream) tracedEpoch(ctx context.Context, b *bench, tr *tracer, ep source.DeltaEpoch) (root, work time.Duration, err error) {
	rootID := tr.open(0, "epoch")
	apply := tr.open(rootID, "core.apply")
	for i, dl := range ep.Deltas {
		one := source.DeltaEpoch{Seq: ep.Seq, Deltas: ep.Deltas[i : i+1]}
		if i == len(ep.Deltas)-1 {
			one.Cursors = ep.Cursors
		}
		name := "linkage.upsert"
		if dl.Op == source.OpDelete {
			name = "linkage.delete"
		}
		before := c.st.Comparisons()
		if err := tr.do(apply, name, func() error { return c.st.ApplyDeltas(c.metas, one) }); err != nil {
			tr.close(apply)
			tr.close(rootID)
			return 0, 0, err
		}
		c.deltas++
		c.deltaComparisons += c.st.Comparisons() - before
	}
	work = tr.close(apply)

	// The publish split: the same view Publish builds, from the public
	// pieces, under the accuracy estimates Publish will use.
	d, clusters := c.st.Dataset(), c.st.Clusters()
	var attrs []string
	for _, ac := range d.Attributes() {
		attrs = append(attrs, ac.Attr)
	}
	sort.Strings(attrs)
	var (
		claims *data.ClaimSet
		res    *fusion.OnlineResult
		view   *core.Snapshot
	)
	_ = tr.do(rootID, "fusion.claims", func() error {
		claims = data.ClaimsFromClusters(d, clusters, attrs)
		return nil
	})
	err = tr.do(rootID, "fusion.online", func() error {
		var err error
		res, err = fusion.Online{Accuracy: c.st.Accuracy(), Workers: b.workers, Ctx: ctx}.FuseOnline(claims)
		return err
	})
	if err == nil {
		err = tr.do(rootID, "core.snapshot_build", func() error {
			var err error
			view, err = core.BuildSnapshot(&core.Report{Normalized: d, Clusters: clusters, Fusion: &res.Result})
			return err
		})
	}
	var published *core.Snapshot
	if err == nil {
		id := tr.open(rootID, "core.publish")
		published, err = c.st.Publish(ctx)
		work += tr.close(id)
	}
	root = tr.close(rootID)
	if err != nil {
		return 0, 0, err
	}
	b.check(snapshotHash(view) == snapshotHash(published),
		"stream-churn: view rebuilt from public pieces differs from the published one at epoch %d", ep.Seq)
	return root, work, nil
}

// fingerprint identifies the stream's whole observable state: counters,
// clusters, cursors, accuracy estimates and the served entities.
func (c *churnStream) fingerprint() string {
	st := c.st
	return hashOf(func(w io.Writer) {
		fmt.Fprintf(w, "epoch=%d ingested=%d deleted=%d publishes=%d comparisons=%d\n",
			st.Epoch(), st.Ingested(), st.Deleted(), st.Publishes(), st.Comparisons())
		writeClusters(w, st.Clusters())
		cursors := st.Cursors()
		for _, id := range sortedKeys(cursors) {
			fmt.Fprintf(w, "cursor %s=%d\n", id, cursors[id])
		}
		acc := st.Accuracy()
		for _, id := range sortedKeys(acc) {
			fmt.Fprintf(w, "acc %s=%.17g\n", id, acc[id])
		}
		writeSnapshot(w, c.sink.svc.srv.Snapshot())
	})
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// readBeside runs the stream's readers while run runs: open-loop
// searches at streamReadRate over one connection. A response must be
// 200, and when no publish swapped the snapshot during the request its
// body must equal the direct call's.
func (c *churnStream) readBeside(ctx context.Context, b *bench, dur time.Duration, run func() error) (*loadStep, error) {
	snap := c.sink.svc.srv.Snapshot()
	rng := rand.New(rand.NewSource(b.seed))
	pool := make([]*query, 256)
	for i := range pool {
		pool[i] = searchQuery(rng, snap)
	}
	client := newClient(1)
	defer client.CloseIdleConnections()
	var (
		step *loadStep
		wg   sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		step = openLoop(streamReadRate, dur, 1, func(i int) (func() error, error) {
			q := pool[i%len(pool)]
			before := c.sink.svc.srv.Snapshot()
			code, body, err := do(ctx, client, c.sink.svc.base, q)
			after := c.sink.svc.srv.Snapshot()
			switch {
			case err != nil:
				return nil, err
			case code != http.StatusOK:
				return nil, fmt.Errorf("%s: status %d", q.path, code)
			case before != after:
				return nil, nil // a publish swapped the snapshot during the request
			}
			return func() error {
				want, err := q.direct(before)
				if err != nil {
					return err
				}
				if !bytes.Equal(body, want) {
					return fmt.Errorf("%s: body differs from the direct call", q.path)
				}
				return nil
			}, nil
		})
	}()
	err := run()
	wg.Wait()
	b.ops(len(step.lat), step.failed)
	b.check(step.failed == 0, "stream-churn reads: %s", step.problem)
	return step, err
}

// runStream is the stream-churn workload: a churn-heavy delta log
// loaded as set-up, then fixed delta epochs released every
// streamInterval, each ApplyDeltas then Publish into the service, with
// reads beside them.
func runStream(ctx context.Context, b *bench) error {
	b.conns = 1 // the readers' one connection
	timed := int(b.seconds / streamInterval)
	n := int(b.phase() / streamInterval)
	const setups = 5
	var (
		streams []*churnStream
		setupT  []time.Duration
		drains  []time.Duration
	)
	defer func() {
		for _, c := range streams {
			c.stop()
		}
	}()
	keep := 1 // set-up streams the run goes on with: the untraced one,
	if b.traced {
		keep = 2 // and the traced one
	}
	// The set-ups thrown away come first and each is released before
	// the next, so that an untraced run never holds two set-up streams.
	for i := 0; i < setups; i++ {
		t0 := time.Now()
		c, err := streamSetup(ctx, b, timed)
		if err != nil {
			return fmt.Errorf("stream-churn set-up: %w", err)
		}
		setupT = append(setupT, time.Since(t0))
		drains = append(drains, c.drain)
		if i >= setups-keep {
			streams = append(streams, c)
		} else if err := c.stop(); err != nil {
			return err
		}
	}
	b.set("setup_s", median(secs(setupT)))
	b.set("source.drain_ms", median(ms(drains)))
	b.note("live_records_at_start", streams[0].st.Dataset().NumRecords())
	b.note("timed_epochs", n)

	// Untraced: the end-to-end numbers.
	c := streams[0]
	c0 := cpuTime()
	var times epochTimes
	reads, err := c.readBeside(ctx, b, time.Duration(n)*streamInterval, func() error {
		var err error
		times, err = c.runEpochs(ctx, b, nil, n)
		return err
	})
	if err != nil {
		return err
	}
	b.note("cpu_ms_per_op", float64(cpuTime()-c0)/float64(time.Millisecond)/float64(n))
	live := c.st.Dataset()
	b.set("latency_p50_ms", median(ms(times.fresh)))
	b.note("latency_p90_ms", quantile(ms(times.fresh), 0.9))
	b.set("linkage_f1", eval.Clusters(c.st.Clusters(), restrictTruth(c.truth, live)).F1)
	b.set("core.queue_wait_ms", median(ms(times.wait)))
	b.set("serve.read_p50_ms", reads.p(0.5))
	b.set("serve.read_p99_ms", reads.p(0.99))
	b.note("live_records_at_end", live.NumRecords())
	b.note("freshness_ms", quartiles(ms(times.fresh)))
	b.note("reads", stepNotes([]*loadStep{reads}))
	want := c.fingerprint()
	b.note("state_hash", want)
	if !b.traced {
		return nil
	}

	// Traced: the same epochs on a second, identically set-up stream.
	t := streams[1]
	var traced epochTimes
	if _, err := t.readBeside(ctx, b, time.Duration(n)*streamInterval, func() error {
		var err error
		traced, err = t.runEpochs(ctx, b, b.tr, n)
		return err
	}); err != nil {
		return err
	}
	got := t.fingerprint()
	b.check(got == want, "stream-churn: traced stream state %s differs from the untraced %s", got, want)
	for span, metric := range map[string]string{
		"core.apply": "core.apply_ms", "core.publish": "core.publish_ms",
		"fusion.claims": "fusion.claims_ms", "fusion.online": "fusion.online_ms",
		"core.snapshot_build": "core.snapshot_build_ms",
	} {
		b.set(metric, median(ms(b.tr.named(span))))
	}
	b.set("linkage.upsert_us", median(us(b.tr.named("linkage.upsert"))))
	b.set("linkage.delete_us", median(us(b.tr.named("linkage.delete"))))
	b.set("linkage.comparisons_per_delta", float64(t.deltaComparisons)/float64(t.deltas))
	// Like for like: the traced apply and publish spans against the
	// untraced epoch from its start to Publish returning. The view
	// rebuilt between them is extra work, not tracing cost.
	untraced := make([]time.Duration, n)
	for k := range untraced {
		untraced[k] = times.fresh[k] - times.wait[k]
	}
	b.set("trace.overhead_pct", 100*(median(ms(traced.work))/median(ms(untraced))-1))
	b.recordLayerShares("epoch", traced.roots)
	return b.persist(t)
}

// persist measures state persistence off the timed path: Save three
// times, then one Compact.
func (b *bench) persist(c *churnStream) error {
	dir := filepath.Join(b.scratch, "state", fmt.Sprintf("%s-%d-%d", b.workload, b.seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "stream.state")
	var saves []time.Duration
	for i := 0; i < 3; i++ {
		id := b.tr.open(0, "core.save")
		err := c.st.Save(path)
		saves = append(saves, b.tr.close(id))
		if err != nil {
			return err
		}
	}
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	b.set("core.save_ms", median(ms(saves)))
	b.set("core.state_mb", float64(fi.Size())/(1<<20))
	b.set("core.tombstones", float64(c.st.Tombstones()))
	id := b.tr.open(0, "core.compact")
	c.st.Compact()
	b.set("core.compact_ms", float64(b.tr.close(id))/float64(time.Millisecond))
	return nil
}
