// Command perfbench is the repository's end-to-end benchmark. It
// generates one workload from a seed with internal/datagen, feeds the
// generated inputs to the integration system (batch pipeline, mutable
// stream, HTTP service), checks the outputs and prints one JSON result
// line. With --trace 1 it also records spans around every call into a
// layer and reports per-layer numbers instead of end-to-end ones.
//
//	bash perfbench/run.sh --workload batch-web --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is the result object; the line
// before it carries the environment block and the detailed figures.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// workload runs one workload under b and records its metrics.
type workload func(ctx context.Context, b *bench) error

var workloads = map[string]workload{
	"batch-web":    runBatch,
	"stream-churn": runStream,
	"serve-read":   runServe,
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: batch-web, stream-churn or serve-read")
		seed    = flag.Int64("seed", 1, "seed the workload's inputs are generated from")
		seconds = flag.Int("seconds", 20, "how long one run measures")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		root    = flag.String("root", ".", "repository root; scratch files go under its .bench_build/")
	)
	flag.Parse()
	wl, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be ≥ 1 and --trace 0 or 1")
		os.Exit(2)
	}
	b, err := newBench(*name, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	os.Exit(b.finish(wl(context.Background(), b)))
}

// bench is the state of one benchmark run: its inputs, its recorded
// metrics and its output checks.
type bench struct {
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
	root     string // the repository checkout
	scratch  string // .bench_build/ under the repository root

	// workers and conns are the worker goroutines and client
	// connections the workload uses; finish fails a run that uses more
	// than nproc of either.
	workers, conns int

	tr   *tracer // nil on untraced runs
	heap *heapWatch

	attempted, failed int
	problems          []string
	metrics           map[string]float64
	detail            map[string]any
}

func newBench(name string, seed int64, seconds time.Duration, traced bool, root string) (*bench, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	if err := loadMetricDefs(abs); err != nil {
		return nil, err
	}
	scratch := filepath.Join(abs, ".bench_build")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, err
	}
	b := &bench{
		workload: name, seed: seed, seconds: seconds, traced: traced, root: abs, scratch: scratch,
		workers: runtime.NumCPU(),
		metrics: map[string]float64{},
		detail:  map[string]any{},
		heap:    startHeapWatch(),
	}
	if traced {
		b.tr = newTracer(fmt.Sprintf("%s-%d-%d", name, seed, time.Now().UnixNano()))
	}
	return b, nil
}

// check records a failed output check; the run then reports
// correct=false and exits non-zero instead of printing numbers.
func (b *bench) check(ok bool, format string, args ...any) {
	if !ok {
		b.problems = append(b.problems, fmt.Sprintf(format, args...))
	}
}

// set records one metric value.
func (b *bench) set(name string, v float64) { b.metrics[name] = v }

// ops counts n attempted operations of which failed failed.
func (b *bench) ops(n, failed int) {
	b.attempted += n
	b.failed += failed
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// finish prints the detail line and the result line and returns the
// process exit code.
func (b *bench) finish(runErr error) int {
	b.set("peak_heap_mb", float64(b.heap.stop())/(1<<20))
	if runErr != nil {
		b.problems = append(b.problems, "run: "+runErr.Error())
	}
	if b.failed > 0 {
		b.problems = append(b.problems, fmt.Sprintf("%d of %d operations failed", b.failed, b.attempted))
	}
	if b.attempted == 0 {
		b.problems = append(b.problems, "no operation was attempted")
	}
	if n := runtime.NumCPU(); b.workers > n || b.conns > n {
		b.problems = append(b.problems, fmt.Sprintf("used %d workers and %d connections on %d CPUs", b.workers, b.conns, n))
	}
	b.detail["environment"] = environment(b.root, b.workers, b.conns)
	set := endToEnd
	if b.traced {
		set = perLayer
		if err := b.tr.write(b.scratch, b.workload, b.seed, b.detail["environment"]); err != nil {
			b.problems = append(b.problems, "writing trace: "+err.Error())
		}
	}
	out := resultOut{Correct: len(b.problems) == 0, Attempted: b.attempted, Failed: b.failed,
		Metrics: map[string]metricOut{}}
	for _, m := range set {
		v, ok := b.metrics[m.name]
		switch {
		case ok:
		case b.traced:
			v = 0 // a layer this workload does not exercise
		default:
			b.problems = append(b.problems, "end-to-end metric "+m.name+" was not measured")
			out.Correct = false
		}
		out.Metrics[m.name] = metricOut{Value: v, Unit: m.unit}
	}
	b.detail["workload"] = b.workload
	b.detail["seed"] = b.seed
	b.detail["traced"] = b.traced
	b.detail["problems"] = b.problems
	b.detail["all_metrics"] = sortedMetrics(b.metrics)
	line, _ := json.Marshal(b.detail)
	fmt.Println(string(line))
	if !out.Correct {
		for _, p := range b.problems {
			fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
		}
		out.Metrics = map[string]metricOut{}
	}
	line, _ = json.Marshal(out)
	fmt.Println(string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

// sortedMetrics renders every recorded metric in name order.
func sortedMetrics(m map[string]float64) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = fmt.Sprintf("%s=%.6g", n, m[n])
	}
	return out
}

// phase returns the measuring time of one of a run's parts: the whole
// run untraced, half of it for each of the untraced and traced parts
// of a traced run.
func (b *bench) phase() time.Duration {
	if b.traced {
		return b.seconds / 2
	}
	return b.seconds
}

// note records a workload-specific entry of the detail line.
func (b *bench) note(key string, v any) { b.detail[key] = v }
