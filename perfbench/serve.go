package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/eval"
	"repro/internal/serve"
	"repro/internal/tokenize"
)

// serveWeb is the corpus behind serve-read's static snapshot: 1,000
// entities over 16 heterogeneous sources, cut to 2,400 records.
var serveWeb = webShape{entities: 1000, sources: 16, records: 2400, heterogeneity: 0.5}

// The serve-read schedule: three fixed open-loop rates, each for a
// third of the run in serveRounds steps, and the p99 limit a rate must
// meet. See README.md
// for why these values.
var (
	serveRates  = []float64{100, 200, 400}
	serveRounds = 5
	serveLimit  = 20 * time.Millisecond
)

// httpService is a serve.Server behind a loopback HTTP listener.
type httpService struct {
	srv    *serve.Server
	http   *http.Server
	base   string
	served chan error
}

func startService(snap *core.Snapshot) (*httpService, error) {
	srv, err := serve.New(snap, nil, serve.Config{})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	s := &httpService{
		srv:    srv,
		http:   &http.Server{Handler: srv.Handler()},
		base:   "http://" + ln.Addr().String(),
		served: make(chan error, 1),
	}
	go func() { s.served <- s.http.Serve(ln) }()
	return s, nil
}

// stop shuts the listener down and waits for the serving goroutine.
func (s *httpService) stop() error {
	err := s.http.Shutdown(context.Background())
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	s.srv.Close()
	return err
}

// newClient returns an HTTP client that holds at most conns
// connections to the service.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true,
	}}
}

// query is one read: the HTTP request and the equivalent direct call
// on a snapshot.
type query struct {
	kind   string // search, entity, similar, resolve
	method string
	path   string
	body   []byte

	q      string            // search terms
	id     string            // entity / similar
	values map[string]string // resolve
}

// call runs the query straight on snap and returns the value the
// handler renders for it.
func (q *query) call(snap *core.Snapshot) (any, error) {
	var v any
	switch q.kind {
	case "search":
		hits, err := snap.Search(q.q, 0)
		if err != nil {
			return nil, err
		}
		v = map[string]any{"query": q.q, "hits": hitsJSON(hits)}
	case "entity":
		e, ok := snap.Entity(q.id)
		if !ok {
			return nil, fmt.Errorf("no entity %s", q.id)
		}
		v = entityJSON(e)
	case "similar":
		hits, err := snap.Similar(q.id, 0)
		if err != nil {
			return nil, err
		}
		v = map[string]any{"id": q.id, "hits": hitsJSON(hits)}
	case "resolve":
		rec := data.NewRecord("__query__", "__client__")
		for attr, raw := range q.values {
			rec.Set(attr, data.Parse(raw))
		}
		hits, err := snap.Resolve(rec, 0)
		if err != nil {
			return nil, err
		}
		resp := map[string]any{"match": false, "candidates": hitsJSON(hits)}
		if len(hits) > 0 {
			resp["best"] = entityJSON(hits[0].Entity)
			resp["score"] = hits[0].Score
			resp["match"] = hits[0].Score >= 0.6 // serve.Config's default threshold
		}
		v = resp
	}
	return v, nil
}

// direct renders the response body the handler must send for q on
// snap, byte for byte.
func (q *query) direct(snap *core.Snapshot) ([]byte, error) {
	v, err := q.call(snap)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err = enc.Encode(v)
	return buf.Bytes(), err
}

// entityJSON and hitsJSON render the service's wire types.
func entityJSON(e *core.Entity) serve.EntityJSON {
	out := serve.EntityJSON{ID: e.ID, Title: e.Title, Records: e.Records, Sources: e.Sources}
	if len(e.Values) > 0 {
		out.Values = make(map[string]string, len(e.Values))
		for attr, v := range e.Values {
			out.Values[attr] = v.String()
		}
		out.Confidence = e.Confidence
	}
	return out
}

func hitsJSON(hits []core.Hit) []serve.HitJSON {
	out := make([]serve.HitJSON, len(hits))
	for i, h := range hits {
		out[i] = serve.HitJSON{ID: h.Entity.ID, Title: h.Entity.Title, Score: h.Score,
			Records: len(h.Entity.Records), Sources: len(h.Entity.Sources)}
	}
	return out
}

// searchQuery draws one or two title words of a random entity.
func searchQuery(rng *rand.Rand, snap *core.Snapshot) *query {
	ents := snap.Entities()
	words := tokenize.Words(ents[rng.Intn(len(ents))].Title)
	if len(words) == 0 {
		words = []string{"pro"}
	}
	q := words[rng.Intn(len(words))]
	if len(words) > 1 && rng.Intn(2) == 0 {
		q += " " + words[rng.Intn(len(words))]
	}
	return &query{kind: "search", method: "GET", path: "/search?q=" + url.QueryEscape(q), q: q}
}

// readKinds are serve-read's endpoints, in the order queryPool cycles
// through them: equal shares, since no record of real traffic says
// otherwise (see README.md).
var readKinds = []string{"search", "entity", "similar", "resolve"}

// queryPool draws n reads from seed, the i-th of kind
// readKinds[i%len(readKinds)]: a search for title words, an entity
// lookup, similar entities, or the resolution of a source record.
func queryPool(seed int64, n int, snap *core.Snapshot, d *data.Dataset) []*query {
	rng := rand.New(rand.NewSource(seed))
	recs := d.Records()
	out := make([]*query, n)
	for i := range out {
		id := fmt.Sprintf("e%d", rng.Intn(snap.Len()))
		switch readKinds[i%len(readKinds)] {
		case "search":
			out[i] = searchQuery(rng, snap)
		case "entity":
			out[i] = &query{kind: "entity", method: "GET", path: "/entities/" + id, id: id}
		case "similar":
			out[i] = &query{kind: "similar", method: "GET", path: "/similar/" + id, id: id}
		default:
			r := recs[rng.Intn(len(recs))]
			vals := map[string]string{}
			for _, a := range r.Attrs() {
				vals[a] = r.Get(a).String()
			}
			body, _ := json.Marshal(map[string]any{"values": vals})
			out[i] = &query{kind: "resolve", method: "POST", path: "/resolve", body: body, values: vals}
		}
	}
	return out
}

// do sends q and returns the status and body.
func do(ctx context.Context, c *http.Client, base string, q *query) (int, []byte, error) {
	var body io.Reader
	if q.body != nil {
		body = bytes.NewReader(q.body)
	}
	req, err := http.NewRequestWithContext(ctx, q.method, base+q.path, body)
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	buf, err := io.ReadAll(resp.Body)
	return resp.StatusCode, buf, err
}

// loadStep is the outcome of one open-loop step.
type loadStep struct {
	rate    float64
	lat     []time.Duration // per request, from when it was due
	busy    []time.Duration // per request, from when it was sent
	late    []time.Duration // how late the generator sent each request
	failed  int             // non-200, transport error or wrong body
	lag     time.Duration   // last completion minus last due time
	problem string          // first failure seen
}

func (s *loadStep) p(q float64) float64 { return quantile(ms(s.lat), q) }

// meets reports whether the step's p99 is within limit and the queue
// did not grow: the last request finished within limit of its due
// time.
func (s *loadStep) meets(limit time.Duration) bool {
	return s.failed == 0 && s.p(0.99) <= float64(limit)/float64(time.Millisecond) && s.lag <= limit
}

// merge pools the samples of steps run at one rate; the lag is the
// worst step's.
func merge(steps []*loadStep) *loadStep {
	out := &loadStep{rate: steps[0].rate}
	for _, st := range steps {
		out.lat = append(out.lat, st.lat...)
		out.busy = append(out.busy, st.busy...)
		out.late = append(out.late, st.late...)
		out.failed += st.failed
		if st.lag > out.lag {
			out.lag = st.lag
		}
		if out.problem == "" {
			out.problem = st.problem
		}
	}
	return out
}

// openLoop sends rate×dur requests over conns workers, request i due
// at start + i/rate whether or not earlier ones have returned. exec(i)
// sends request i and reports an error for a failed one; the check
// it may return runs after the request's completion time is taken, so
// the benchmark's own verification is not in the timed path.
func openLoop(rate float64, dur time.Duration, conns int, exec func(i int) (check func() error, err error)) *loadStep {
	n := int(rate * dur.Seconds())
	type item struct {
		i   int
		due time.Time
	}
	step := &loadStep{rate: rate, lat: make([]time.Duration, n), busy: make([]time.Duration, n),
		late: make([]time.Duration, n)}
	jobs := make(chan item, n) // sized to every send, so the generator never blocks
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		last time.Time
	)
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := range jobs {
				sent := time.Now()
				check, err := exec(it.i)
				now := time.Now()
				if err == nil && check != nil {
					err = check()
				}
				mu.Lock()
				step.lat[it.i] = now.Sub(it.due)
				step.busy[it.i] = now.Sub(sent)
				if err != nil {
					step.failed++
					if step.problem == "" {
						step.problem = err.Error()
					}
				}
				if now.After(last) {
					last = now
				}
				mu.Unlock()
			}
		}()
	}
	start := time.Now().Add(time.Millisecond)
	interval := time.Duration(float64(time.Second) / rate)
	var due time.Time
	for i := 0; i < n; i++ {
		due = start.Add(time.Duration(i) * interval)
		sleepUntil(due)
		step.late[i] = time.Since(due)
		jobs <- item{i, due}
	}
	close(jobs)
	wg.Wait()
	step.lag = last.Sub(due)
	return step
}

// serveSetup generates the corpus, runs one batch job over it and
// starts the service on the resulting snapshot. tr, when set, traces
// the job.
func serveSetup(ctx context.Context, b *bench, tr *tracer) (*httpService, batchResult, *data.Dataset, error) {
	d, err := genCorpus(b.seed, serveWeb)
	if err != nil {
		return nil, batchResult{}, nil, err
	}
	var r batchResult
	if tr != nil {
		r, err = runTracedJob(ctx, tr, batchConfig(b.workers), d)
	} else {
		r, err = runJob(ctx, core.New(batchConfig(b.workers)), d)
	}
	if err != nil {
		return nil, batchResult{}, nil, err
	}
	svc, err := startService(r.snap)
	return svc, r, d, err
}

// runServe is the serve-read workload: open-loop reads against a
// static snapshot at three fixed rates, every response checked
// against the direct Snapshot call for the same query.
func runServe(ctx context.Context, b *bench) error {
	b.conns = b.workers
	const setups = 5
	var (
		svc    *httpService
		job    batchResult
		d      *data.Dataset
		hashes = map[string]bool{}
		setupT []time.Duration
	)
	for i := 0; i < setups; i++ {
		if svc != nil {
			if err := svc.stop(); err != nil {
				return err
			}
		}
		// Release the previous set-up, so that peak_heap_mb sees one
		// set-up's data at a time.
		svc, job, d = nil, batchResult{}, nil
		var tr *tracer
		if i == setups-1 {
			tr = b.tr // trace the last set-up's batch job
		}
		t0 := time.Now()
		var err error
		svc, job, d, err = serveSetup(ctx, b, tr)
		if err != nil {
			return fmt.Errorf("serve-read set-up: %w", err)
		}
		setupT = append(setupT, time.Since(t0))
		hashes[job.hash()] = true
	}
	defer svc.stop()
	snap := job.snap
	b.check(len(hashes) == 1, "serve-read: set-ups built %d different snapshots", len(hashes))
	b.set("setup_s", median(secs(setupT)))
	b.set("linkage_f1", eval.Clusters(job.rep.Clusters, d.GroundTruthClusters()).F1)
	b.note("entities", snap.Len())
	if b.traced {
		b.recordBatchSteps(job)
	}

	pool := queryPool(b.seed, 512, snap, d)
	want := make([][]byte, len(pool))
	for i, q := range pool {
		var err error
		if want[i], err = q.direct(snap); err != nil {
			return fmt.Errorf("serve-read: direct %s %s: %w", q.method, q.path, err)
		}
	}
	client := newClient(b.conns)
	defer client.CloseIdleConnections()
	// sent counts the requests of the steps before the current one:
	// request i of a step reads pool[(sent+i)%len(pool)].
	sent := 0
	read := func(i int) (func() error, error) {
		i = (sent + i) % len(pool)
		q := pool[i]
		code, body, err := do(ctx, client, svc.base, q)
		switch {
		case err != nil:
			return nil, err
		case code != http.StatusOK:
			return nil, fmt.Errorf("%s %s: status %d", q.method, q.path, code)
		}
		return func() error {
			if !bytes.Equal(body, want[i]) {
				return fmt.Errorf("%s %s: body differs from the direct call", q.method, q.path)
			}
			return nil
		}, nil
	}

	// The rates are stepped round-robin in short steps, serveRounds
	// times over, so that each rate is sampled across the whole run.
	stepDur := b.phase() / time.Duration(serveRounds*len(serveRates))
	byRate := make([][]*loadStep, len(serveRates))
	var (
		midCPU time.Duration
		midLat = map[string][]time.Duration{} // per kind, at the middle rate
	)
	for r := 0; r < serveRounds; r++ {
		for i, rate := range serveRates {
			c0 := cpuTime()
			st := openLoop(rate, stepDur, b.conns, read)
			if i == len(serveRates)/2 {
				midCPU += cpuTime() - c0
				for j, d := range st.lat {
					kind := pool[(sent+j)%len(pool)].kind
					midLat[kind] = append(midLat[kind], d)
				}
			}
			sent += len(st.lat)
			byRate[i] = append(byRate[i], st)
			b.ops(len(st.lat), st.failed)
			b.check(st.failed == 0, "serve-read at %.0f/s: %s", rate, st.problem)
		}
	}
	var steps []*loadStep
	maxRate := 0.0
	for _, sts := range byRate {
		st := merge(sts)
		steps = append(steps, st)
		if st.meets(serveLimit) {
			maxRate = st.rate
		}
	}
	mid := steps[len(steps)/2]
	b.note("cpu_ms_per_op", float64(midCPU)/float64(time.Millisecond)/float64(len(mid.lat)))
	// The end-to-end latency is the mean of the endpoints' medians, so
	// that each endpoint moves it in proportion to its own latency.
	var sum float64
	byKind := map[string]map[string]float64{}
	for _, kind := range readKinds {
		lat := ms(midLat[kind])
		sum += median(lat)
		byKind[kind] = map[string]float64{"n": float64(len(lat)), "p50_ms": median(lat), "p99_ms": quantile(lat, 0.99)}
	}
	b.set("latency_p50_ms", sum/float64(len(readKinds)))
	b.note("latency_by_endpoint", byKind)
	b.note("latency_p90_ms", mid.p(0.9))
	b.set("serve.read_p50_ms", mid.p(0.5))
	b.set("serve.read_p99_ms", mid.p(0.99))
	b.set("serve.max_rps", maxRate)
	b.note("steps", stepNotes(steps))
	if !b.traced {
		return nil
	}

	// Traced part: the middle rate again, each read made once directly
	// on the snapshot and once over HTTP, each under its own span.
	type pair struct{ direct, http, rest time.Duration }
	var (
		mu    sync.Mutex
		pairs = map[string][]pair{}
	)
	var reads []time.Duration
	st := openLoop(mid.rate, b.phase(), b.conns, func(i int) (func() error, error) {
		q := pool[(sent+i)%len(pool)]
		root := b.tr.open(0, "read")
		id := b.tr.open(root, "core."+q.kind)
		_, err := q.call(snap)
		direct := b.tr.close(id)
		if err != nil {
			b.tr.close(root)
			return nil, err
		}
		id = b.tr.open(root, "serve.http")
		check, err := read(i)
		rt := b.tr.close(id)
		total := b.tr.close(root)
		mu.Lock()
		pairs[q.kind] = append(pairs[q.kind], pair{direct, rt, total - direct})
		reads = append(reads, total)
		mu.Unlock()
		return check, err
	})
	b.ops(len(st.lat), st.failed)
	b.check(st.failed == 0, "traced serve-read: %s", st.problem)
	var httpOnly, rest []time.Duration
	for kind, ps := range pairs {
		var d []time.Duration
		for _, p := range ps {
			d = append(d, p.direct)
			httpOnly = append(httpOnly, p.http-p.direct)
			rest = append(rest, p.rest)
		}
		b.set("core."+kind+"_us", median(us(d)))
	}
	b.set("serve.http_us", median(us(httpOnly)))
	// Like for like: a traced read's HTTP round trip with the span
	// bookkeeping around it (the read span minus the extra direct call)
	// against the untraced round trip, both from when the request was
	// sent.
	b.set("trace.overhead_pct", 100*(median(ms(rest))/median(ms(mid.busy))-1))
	b.recordLayerShares("read", reads)
	return nil
}

// stepNotes summarises open-loop steps for the detail line.
func stepNotes(steps []*loadStep) []map[string]any {
	var out []map[string]any
	for _, s := range steps {
		out = append(out, map[string]any{
			"rate": s.rate, "requests": len(s.lat), "failed": s.failed,
			"p50_ms": s.p(0.5), "p90_ms": s.p(0.9), "p99_ms": s.p(0.99), "lag_ms": float64(s.lag) / 1e6,
			"generator_late_p99_ms": quantile(ms(s.late), 0.99),
		})
	}
	return out
}
