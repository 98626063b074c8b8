package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

// benchmarkFile is the part of BENCHMARK.json the self-tests compare with.
type benchmarkFile struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// shortSpec shortens a workload's warm-up to just over one hub refresh.
func shortSpec(t *testing.T, name string) *workloadSpec {
	t.Helper()
	spec, err := specByName(name)
	if err != nil {
		t.Fatal(err)
	}
	s := *spec
	s.warmup = s.statsWindow + 100*time.Millisecond
	return &s
}

// TestShortRunPrintsEveryMetric runs each workload briefly, untraced and
// traced, and checks that it passes its commit checks and reports exactly
// the metrics BENCHMARK.json names, with their units.
func TestShortRunPrintsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	b := readBenchmarkFile(t)
	for _, spec := range specs {
		for _, traced := range []bool{false, true} {
			want := b.EndToEnd
			if traced {
				want = b.PerLayer
			}
			var out bytes.Buffer
			res, err := runBenchmark(shortSpec(t, spec.name), 1, time.Second, traced, t.TempDir(), &out)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", spec.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d\n%s", spec.name, traced, res.Correct, res.Attempted, res.Failed, out.String())
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json names %d", spec.name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", spec.name, traced, m.Name, got, m.Unit)
				}
			}
			if !traced && !strings.Contains(out.String(), "exact samples") {
				t.Errorf("%s: latency report without its sample count:\n%s", spec.name, out.String())
			}
		}
	}
}

// TestFabricatedCommitFailsCheck is the negative control: the check passes
// on the real tally and fails once the tally holds one commit that never
// ran.
func TestFabricatedCommitFailsCheck(t *testing.T) {
	fabricated := map[string]map[string]any{
		"tpcc-contended":          {"w": 0, "d": 1, "c": 2, "amount": 7},
		"delivery-durable-4shard": {"w": 3, "d": 9, "c": 0, "amount": 7},
		"bank-flip-1ms":           {"srcBranch": 0, "dstBranch": 1, "srcAcct": 2, "dstAcct": 3, "amount": 5},
	}
	profile := map[string]int{"tpcc-contended": 1, "delivery-durable-4shard": 2, "bank-flip-1ms": 0}
	for _, spec := range specs {
		d, _, err := deploy(spec, nil, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if spec.name == "tpcc-contended" {
			d.spec = shortSpec(t, spec.name)
			w := d.run(1, 500*time.Millisecond)
			if w.committed == 0 {
				t.Errorf("%s: no commits in a short run", spec.name)
			}
		}
		if _, bad := d.tally.verify(d.finalState()); len(bad) != 0 {
			t.Errorf("%s: real tally fails the check: %v", spec.name, bad)
		}
		d.tally.record(profile[spec.name], fabricated[spec.name])
		if _, bad := d.tally.verify(d.finalState()); len(bad) == 0 {
			t.Errorf("%s: a fabricated commit passed the check", spec.name)
		}
		d.close()
	}
}

// TestSeedChangesOnlyInputs checks that the seed changes the generated
// transaction parameters, that the same seed repeats them, and that the
// workload itself does not depend on it: the seed reaches a run only
// through workerRNG.
func TestSeedChangesOnlyInputs(t *testing.T) {
	for _, spec := range specs {
		draw := func(seed int64) []any {
			w, _ := spec.newBench()
			rng := workerRNG(seed, 0)
			var out []any
			for i := 0; i < 50; i++ {
				p, params := w.Generate(rng, 0)
				out = append(out, p, params)
			}
			return out
		}
		if !reflect.DeepEqual(draw(1), draw(1)) {
			t.Errorf("%s: the same seed drew different inputs", spec.name)
		}
		if reflect.DeepEqual(draw(1), draw(2)) {
			t.Errorf("%s: seeds 1 and 2 drew the same inputs", spec.name)
		}
		w1, _ := spec.newBench()
		w2, _ := spec.newBench()
		if !reflect.DeepEqual(w1.SeedObjects(), w2.SeedObjects()) {
			t.Errorf("%s: initial state differs between builds", spec.name)
		}
	}
}

func TestTailQuantileKeepsTenSamplesBeyond(t *testing.T) {
	for _, n := range []int{20, 100, 999, 1000, 5000, 100000} {
		q := tailQ(n)
		lat := make([]time.Duration, n)
		for i := range lat {
			lat[i] = time.Duration(i + 1)
		}
		beyond := n - int(quantile(lat, q))
		if beyond < 10 || q > 0.99 {
			t.Errorf("n=%d: q=%.3f leaves %d samples beyond", n, q, beyond)
		}
	}
}

func TestUnionLen(t *testing.T) {
	iv := []interval{{0, 10}, {5, 15}, {20, 30}, {25, 26}, {40, 50}}
	if got := unionLen(iv, 0, 45); got != 15+10+5 {
		t.Errorf("unionLen = %d, want 30", got)
	}
}
