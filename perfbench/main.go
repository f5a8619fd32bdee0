// Command perfbench boots a loopback RobuSTore cluster in-process —
// eight TCP block servers, a three-node replicated metadata group and
// one robust.Client — drives one seeded workload through the client's
// public API, checks every byte it reads back, and prints the
// workload's metrics. The last line of stdout is the JSON result:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 a
// traced cluster reports per-layer metrics and the tracing overhead.
// Build and run it with run.sh from the repository root.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/metadata"
)

// setups is how many times a run boots and preloads a cluster;
// setup_s is their median.
const setups = 5

func main() {
	var (
		name    = flag.String("workload", "", "workload name: bulk-mem, bulk-disk-skew or small-open")
		seed    = flag.Int64("seed", 1, "seed for payloads, keys, op mix, arrivals and server profiles")
		seconds = flag.Float64("seconds", 20, "measured seconds")
		trace   = flag.Int("trace", 0, "1 reports per-layer metrics from a traced cluster")
		tmp     = flag.String("tmp", os.TempDir(), "directory for cluster data (a fresh subdirectory per boot)")
		spans   = flag.String("spans", "", "directory the traced run writes its spans to (empty: not written)")
	)
	flag.Parse()
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, err := run(w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, *tmp, *spans)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// output is the final JSON line.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run boots setups clusters one after another, each in fresh
// directories and torn down before the next, and measures on the
// last. A traced run measures half the time untraced on the
// second-to-last cluster and half traced on the last, so the two
// phases give the tracing overhead.
func run(w workload, seed int64, d time.Duration, traced bool, tmpRoot, spanDir string) (*output, error) {
	in := newInputs(w, seed)
	tmp, err := os.MkdirTemp(tmpRoot, "perfbench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	baseGoroutines := runtime.NumGoroutine()
	// Start from a disk with no writeback pending from earlier runs.
	syscall.Sync()

	var (
		setupTimes []float64
		phases     []*phase
		tr         *tracer
		geometry   metadata.Segment // a preloaded segment's record, for the ltcode probe
	)
	for i := 0; i < setups; i++ {
		measured := i == setups-1 || (traced && i == setups-2)
		var bootTr *tracer
		if traced && i == setups-1 {
			tr = newTracer()
			bootTr = tr
		}
		t0 := time.Now()
		c, err := boot(in, tmp, bootTr, nil)
		if err != nil {
			return nil, fmt.Errorf("boot: %w", err)
		}
		keys := newKeys(in)
		if err := c.preload(context.Background(), in, keys); err != nil {
			c.close()
			return nil, err
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
		if traced && i == setups-1 {
			if geometry, err = c.meta.LookupSegment(segName(0, 0)); err != nil {
				c.close()
				return nil, fmt.Errorf("looking up a preloaded segment: %w", err)
			}
		}
		if measured {
			// Start from a collected heap so garbage from earlier
			// boots does not count toward this phase's peak.
			runtime.GC()
			pd := d
			if traced {
				pd = d / 2
			}
			phases = append(phases, measure(c, in, keys, pd, bootTr))
		}
		if err := c.close(); err != nil {
			return nil, fmt.Errorf("teardown: %w", err)
		}
		if err := checkIsolation(tmp, baseGoroutines); err != nil {
			return nil, err
		}
		// Flush the torn-down cluster's deletes and writeback before
		// the next boot, so its disk work does not slow the next one.
		syscall.Sync()
	}
	fmt.Printf("workload %s seed %d: setup %.3f s (median of %v)\n", w.name, seed, median(setupTimes), setupTimes)

	res := &output{Correct: true}
	for _, p := range phases {
		res.Attempted += p.attempted()
		res.Failed += p.failed()
		for i, e := range p.errs {
			if i == 10 {
				fmt.Fprintf(os.Stderr, "... %d more failures\n", len(p.errs)-i)
				break
			}
			fmt.Fprintln(os.Stderr, "FAILED:", e)
		}
	}
	res.Correct = res.Failed == 0
	last := phases[len(phases)-1]
	for _, p := range phases {
		p.report(os.Stdout)
	}
	if !traced {
		var ungated map[string]metric
		res.Metrics, ungated = last.endToEnd()
		res.Metrics["setup_s"] = metric{median(setupTimes), "s"}
		printMetrics("not gated", ungated)
	} else {
		untraced, untracedUngated := phases[0].endToEnd()
		tracedE2E, tracedUngated := last.endToEnd()
		for k, v := range untracedUngated {
			untraced[k] = v
		}
		for k, v := range tracedUngated {
			tracedE2E[k] = v
		}
		res.Metrics = layerMetrics(last, tr)
		for k, v := range ltcodeProbe(in, geometry) {
			res.Metrics[k] = v
		}
		for _, m := range []string{"read_p50_ms", "write_p50_ms", "update_p50_ms"} {
			res.Metrics["tracing."+strings.TrimSuffix(m, "_ms")+"_overhead_ratio"] =
				metric{tracedE2E[m].Value/untraced[m].Value - 1, "ratio"}
		}
		// The latencies the gate leaves out, so every traced run still
		// records them.
		for _, m := range []string{"write_p50_ms", "update_p50_ms", "read_tail_ms", "write_tail_ms", "read_sd_ms"} {
			res.Metrics["latency."+m] = untraced[m]
		}
		if spanDir != "" {
			if err := tr.writeSpans(spanFile(spanDir, w.name, seed)); err != nil {
				return nil, fmt.Errorf("writing spans: %w", err)
			}
		}
	}
	printMetrics("result", res.Metrics)
	return res, nil
}

// printMetrics prints a titled table of metrics, one per line.
func printMetrics(title string, m map[string]metric) {
	fmt.Printf("-- %s\n", title)
	for _, k := range sortedKeys(m) {
		fmt.Printf("%-40s %14.4f %s\n", k, m[k].Value, m[k].Unit)
	}
}

// checkIsolation verifies a torn-down cluster left nothing behind: no
// directory under tmp and no goroutine beyond those running before
// the first boot. Goroutines get a grace period to observe their
// closed connections.
func checkIsolation(tmp string, baseGoroutines int) error {
	entries, err := os.ReadDir(tmp)
	if err != nil {
		return err
	}
	if len(entries) != 0 {
		return fmt.Errorf("teardown left %s behind", filepath.Join(tmp, entries[0].Name()))
	}
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > baseGoroutines {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			return fmt.Errorf("teardown left %d goroutines running (baseline %d):\n%s",
				runtime.NumGoroutine(), baseGoroutines, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
	return nil
}
