// Command perfbench is the repository benchmark. It runs QR-ACN on the
// in-process cluster under one of three named workloads, driven closed-loop
// by two client runtimes, checks every committed transaction against the
// final replica state, and prints its metrics as one JSON line.
//
//	go run . --workload tpcc-contended --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it prints the end-to-end metrics. With --trace 1 it runs
// the workload twice, untraced and then with every layer wrapped and timed,
// and prints the per-layer metrics. BENCHMARK.json at the repository root
// describes the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// Run settings shared by every workload.
const (
	// setups is how many times an untraced run builds its deployment; the
	// median is setup_s and the last build is measured.
	setups = 21
	// traceEvery: a traced run records the spans of one in this many
	// Execute calls of each worker; every call still feeds the counters.
	traceEvery = 8
	// spanLimit bounds the spans a traced run holds in memory.
	spanLimit = 1 << 19
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload name (tpcc-contended, delivery-durable-4shard, bank-flip-1ms)")
	seed := flag.Int64("seed", 1, "seed of the generated transaction parameters")
	seconds := flag.Int("seconds", 20, "measured window in seconds")
	traced := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.Parse()
	spec, err := specByName(*name)
	if err != nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload <name> --seed <n> --seconds <n ≥ 1> --trace <0|1>:", err)
		os.Exit(2)
	}
	// Commit logs and span files go under .bench_build in the directory the
	// benchmark runs in, beside its build output.
	res, err := runBenchmark(spec, *seed, time.Duration(*seconds)*time.Second, *traced == 1, ".bench_build", os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// report prints a human-readable line ahead of the JSON result.
type report func(format string, args ...any)

// runBenchmark runs one workload and returns its result; report lines go to
// out and files under work.
func runBenchmark(spec *workloadSpec, seed int64, length time.Duration, traced bool, work string, out io.Writer) (*result, error) {
	say := report(func(format string, args ...any) { fmt.Fprintf(out, format+"\n", args...) })
	floor := timerFloor(200)
	say("host: nproc=%d gomaxprocs=%d timer_floor_us=%.1f (p50 of 200 waits on a 60µs timer)",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), us(floor))
	say("workload: %s seed=%d window=%s warmup=%s clients=%d closed-loop refresh=%s",
		spec.name, seed, length, spec.warmup, clients, spec.statsWindow)
	if traced {
		return runTraced(spec, seed, length, floor, work, say)
	}
	return runUntraced(spec, seed, length, work, say)
}

func runUntraced(spec *workloadSpec, seed int64, length time.Duration, work string, say report) (*result, error) {
	var d *deployment
	var took []float64
	for i := 0; i < setups; i++ {
		if d != nil {
			d.close()
		}
		var dur time.Duration
		var err error
		if d, dur, err = deploy(spec, nil, work); err != nil {
			return nil, err
		}
		took = append(took, dur.Seconds())
	}
	defer d.close()
	say("setup: %d builds, median %.4f s, each %.4f", setups, median(took), took)

	w := d.run(seed, length)
	ok := verify(d, w, say)
	lat, committed, failed := latencies(w)
	q := tailQ(len(lat))
	say("window: %d Execute calls, %d committed, %d failed", len(w.samples), committed, failed)
	say("window: commits per second %v", perSecond(w))
	say("latency: p50 %.3f ms and p%.1f %.3f ms over %d exact samples of committed Execute calls",
		ms(quantile(lat, 0.5)), q*100, ms(quantile(lat, q)), len(lat))
	return &result{
		Correct:   ok,
		Attempted: len(w.samples),
		Failed:    failed,
		Metrics: map[string]metric{
			"commit_tps":     {float64(committed) / length.Seconds(), "tx/s"},
			"tx_p50_ms":      {ms(quantile(lat, 0.5)), "ms"},
			"committed_frac": {ratio(float64(committed), float64(len(w.samples))), "ratio"},
			"setup_s":        {median(took), "s"},
			"live_heap_mb":   {float64(w.liveHeap) / (1 << 20), "MiB"},
		},
	}, nil
}

// runTraced runs half the window untraced, for the baseline throughput the
// tracing overhead is measured against and for tx_p99_ms, and half on a
// deployment whose layers are wrapped.
func runTraced(spec *workloadSpec, seed int64, length time.Duration, floor time.Duration, work string, say report) (*result, error) {
	half := length / 2
	base, _, err := deploy(spec, nil, work)
	if err != nil {
		return nil, err
	}
	bw := base.run(seed, half)
	okBase := verify(base, bw, say)
	base.close()
	baseLat, baseCommits, baseFailed := latencies(bw)
	q := tailQ(len(baseLat))
	say("latency: untraced p%.1f %.3f ms over %d exact samples of committed Execute calls",
		q*100, ms(quantile(baseLat, q)), len(baseLat))

	lay := newLayers(spanLimit)
	d, _, err := deploy(spec, lay, work)
	if err != nil {
		return nil, err
	}
	defer d.close()
	w := d.run(seed, half)
	ok := verify(d, w, say)
	_, commits, failed := latencies(w)
	say("window: untraced %d committed, traced %d committed, each over %s", baseCommits, commits, half)

	spans := lay.spans.snapshot()
	path := filepath.Join(work, "spans-"+spec.name+".tsv")
	if err := writeSpans(path, spans); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	say("trace: %d spans written to %s", len(spans), path)

	m := perLayer(d, w, lay, spans, floor, say)
	m["trace.overhead_frac"] = metric{1 - ratio(float64(commits), float64(baseCommits)), "ratio"}
	m["tx_p99_ms"] = metric{ms(quantile(baseLat, q)), "ms"}
	return &result{
		Correct:   okBase && ok,
		Attempted: len(bw.samples) + len(w.samples),
		Failed:    baseFailed + failed,
		Metrics:   m,
	}, nil
}

// latencies returns the latencies of the committed Execute calls of the
// window, and the committed and failed counts.
func latencies(w *window) (lat []time.Duration, committed, failed int) {
	for _, s := range w.samples {
		if s.err {
			failed++
			continue
		}
		committed++
		lat = append(lat, s.d)
	}
	return lat, committed, failed
}

// perSecond counts the committed calls of the window by the second they
// returned in; calls drained after the window fall in the last second.
func perSecond(w *window) []int {
	n := int(w.length / time.Second)
	counts := make([]int, max(n, 1))
	for _, s := range w.samples {
		if !s.err {
			counts[min(int(s.at/time.Second), len(counts)-1)]++
		}
	}
	return counts
}

// verify checks the tally of every committed Execute of the run against the
// final replica state.
func verify(d *deployment, w *window, say report) bool {
	checked, bad := d.tally.verify(d.finalState())
	say("check: %d commits and %d failures over the run, %d values verified, %d mismatches",
		w.committed, w.failed, checked, len(bad))
	for i, b := range bad {
		if i == 10 {
			say("check: ... %d more", len(bad)-i)
			break
		}
		say("check: mismatch %s", b)
	}
	return len(bad) == 0
}

// timerFloor is the median time a 60µs timer takes to fire: the host's
// floor under any simulated network hop.
func timerFloor(n int) time.Duration {
	waits := make([]time.Duration, n)
	for i := range waits {
		t0 := time.Now()
		t := time.NewTimer(60 * time.Microsecond)
		<-t.C
		waits[i] = time.Since(t0)
	}
	return quantile(waits, 0.5)
}
