package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// The self-test runs every workload at reduced size (-small), so it
// takes seconds: cd perfbench && go test .

type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(blob, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// runSmall runs the benchmark like the command line does and returns
// the exit code and the parsed last line.
func runSmall(t *testing.T, workload, trace string) (int, result) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run([]string{"--workload", workload, "--seed", "3", "--seconds", "0.01",
		"--trace", trace, "--small", "--root", "..", "--trace-dir", t.TempDir()}, &out, &errb)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s trace=%s: last line is not a result: %v\nstdout:\n%s\nstderr:\n%s",
			workload, trace, err, out.String(), errb.String())
	}
	return code, res
}

// TestMetricsMatchBenchmarkJSON checks that every workload named in
// BENCHMARK.json runs correctly and prints exactly its metrics, with the
// declared units: the end-to-end set untraced, the per-layer set traced.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	spec := loadBenchmarkJSON(t)
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json names workload %q the benchmark does not have", w.Name)
			continue
		}
		for _, mode := range []struct {
			trace string
			want  map[string]string
		}{
			{"0", units(spec.EndToEnd)},
			{"1", units(spec.PerLayer)},
		} {
			code, res := runSmall(t, w.Name, mode.trace)
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%s: exit %d, correct=%v attempted=%d failed=%d",
					w.Name, mode.trace, code, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(mode.want) {
				t.Errorf("%s trace=%s: %d metrics, BENCHMARK.json declares %d",
					w.Name, mode.trace, len(res.Metrics), len(mode.want))
			}
			for name, unit := range mode.want {
				m, ok := res.Metrics[name]
				if !ok {
					t.Errorf("%s trace=%s: metric %s missing", w.Name, mode.trace, name)
				} else if m.Unit != unit {
					t.Errorf("%s trace=%s: metric %s unit %q, BENCHMARK.json says %q", w.Name, mode.trace, name, m.Unit, unit)
				}
			}
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
}

func units(ms []metricSpec) map[string]string {
	out := map[string]string{}
	for _, m := range ms {
		out[m.Name] = m.Unit
	}
	return out
}

// digests runs the small pair-probe untraced and returns its per-episode
// digests in episode order.
func digests(t *testing.T, cfg config, recorded map[string]string) (*result, []string, string) {
	t.Helper()
	var out bytes.Buffer
	res, err := bench(cfg, workloads[cfg.workload], &out, recorded)
	if err != nil {
		t.Fatal(err)
	}
	var ds []string
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.HasPrefix(line, "# episode ") {
			_, d, _ := strings.Cut(line, "digest=")
			ds = append(ds, d)
		}
	}
	return res, ds, out.String()
}

func smallPairProbe(t *testing.T) config {
	return config{workload: "pair-probe", seed: 5, seconds: 0.01, small: true, root: "..", traceDir: t.TempDir()}
}

// TestDigestsRepeat checks that two runs of one seed simulate the same
// statistics, instance by instance, and that instances differ.
func TestDigestsRepeat(t *testing.T) {
	cfg := smallPairProbe(t)
	_, a, _ := digests(t, cfg, nil)
	_, b, _ := digests(t, cfg, nil)
	for i := 0; i < min(len(a), len(b)); i++ {
		if a[i] == "" || a[i] != b[i] {
			t.Errorf("instance %d: digests %q and %q", i, a[i], b[i])
		}
	}
	if a[0] == a[1] {
		t.Errorf("instances 0 and 1 share digest %s", a[0])
	}
}

// TestCorruptedDigestFails checks that a recorded digest that does not
// match the simulated statistics fails the run's correctness check, and
// that the genuine digest passes it.
func TestCorruptedDigestFails(t *testing.T) {
	cfg := smallPairProbe(t)
	res, ds, out := digests(t, cfg, nil)
	if !res.Correct {
		t.Fatalf("uncorrupted run failed:\n%s", out)
	}
	key := digestKey(cfg.workload, cfg.seed, cfg.small, 0)
	for _, tc := range []struct {
		recorded string
		correct  bool
	}{
		{ds[0], true},
		{corrupt(ds[0]), false},
	} {
		res, _, out := digests(t, cfg, map[string]string{key: tc.recorded})
		if res.Correct != tc.correct {
			t.Errorf("recorded digest %s: correct=%v, want %v\n%s", tc.recorded, res.Correct, tc.correct, out)
		}
	}
}

// corrupt flips the digest's first hex digit.
func corrupt(d string) string {
	c := byte('0')
	if d[0] == '0' {
		c = '1'
	}
	return string(c) + d[1:]
}

// TestRecordedDigests checks that the full-size default-seed digests
// recorded in digests.json cover every simulated workload.
func TestRecordedDigests(t *testing.T) {
	for name, w := range workloads {
		if !w.simulated {
			continue
		}
		if _, ok := recordedDigests[digestKey(name, defaultSeed, false, 0)]; !ok {
			t.Errorf("digests.json has no digest for %s at the default seed", name)
		}
	}
}
