package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"
)

// metricDef is one metric of BENCHMARK.json.
type metricDef struct{ name, unit string }

// endToEnd and perLayer are read from BENCHMARK.json, the one place
// the metric names and units are defined.
var endToEnd, perLayer []metricDef

func loadMetricDefs(root string) error {
	buf, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return fmt.Errorf("reading metric definitions: %w", err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &spec); err != nil {
		return fmt.Errorf("parsing BENCHMARK.json: %w", err)
	}
	for _, m := range spec.EndToEnd {
		endToEnd = append(endToEnd, metricDef{m.Name, m.Unit})
	}
	for _, m := range spec.PerLayer {
		perLayer = append(perLayer, metricDef{m.Name, m.Unit})
	}
	if len(endToEnd) == 0 || len(perLayer) == 0 {
		return fmt.Errorf("BENCHMARK.json defines no metrics")
	}
	return nil
}

// environment is the block every result carries: the machine, the
// toolchain, the code measured and the parallelism the run used.
func environment(root string, workers, conns int) map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go":            runtime.Version(),
		"goos_goarch":   runtime.GOOS + "/" + runtime.GOARCH,
		"commit":        commit,
		"source_sha256": sourceHash(root),
		"workers":       workers,
		"connections":   conns,
	}
}

// sourceHash identifies the measured code when the checkout carries no
// version-control metadata: a SHA-256 over the path and contents of
// every Go source and module file, in path order.
func sourceHash(root string) string {
	var paths []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries are left out of the hash
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && p != root {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s\x00", rel)
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		_, _ = io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// heapWatch samples the live heap after each GC from runtime/metrics
// (no stop-the-world) and keeps the largest value seen.
type heapWatch struct {
	stopc chan struct{}
	done  sync.WaitGroup
	peak  uint64
}

const liveHeapMetric = "/gc/heap/live:bytes"

func startHeapWatch() *heapWatch {
	h := &heapWatch{stopc: make(chan struct{})}
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			h.sample()
			select {
			case <-h.stopc:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

func (h *heapWatch) sample() {
	s := []metrics.Sample{{Name: liveHeapMetric}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindUint64 && s[0].Value.Uint64() > h.peak {
		h.peak = s[0].Value.Uint64()
	}
}

// stop ends sampling and returns the peak live heap in bytes.
func (h *heapWatch) stop() uint64 {
	close(h.stopc)
	h.done.Wait()
	h.sample()
	return h.peak
}

// heapObjects returns the cumulative count of heap objects allocated
// by the process, from runtime/metrics (no stop-the-world).
func heapObjects() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
