// Command perfbench is the repository's benchmark: one process that runs
// a named workload against the tango packages, checks that its outputs
// are correct, and prints end-to-end metrics (untraced) or per-layer
// metrics (traced) as one JSON object on the last line of standard
// output.
//
//	perfbench --workload pair-probe --seed 1 --seconds 20 --trace 0
//
// A run repeats the workload's episode — one set-up plus one measured
// window — until --seconds have passed, and reports medians over
// episodes. See README.md for the workloads, the metric table and how
// to read the numbers.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// small shrinks every workload for the self-test: the code paths and
	// metric set stay the same, the sizes do not.
	small bool
	// traceDir receives the span file of a traced run.
	traceDir string
	// root is the repository checkout, fingerprinted into the report.
	root string
}

// minEpisodes is the fewest episodes a run measures, whatever --seconds
// says, so every median has something to choose from.
const minEpisodes = 3

// result is the final stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args, runs the benchmark and prints its report; it returns
// the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&cfg.seed, "seed", defaultSeed, "seed for the workload's inputs")
	fs.Float64Var(&cfg.seconds, "seconds", 20, "how long to measure")
	fs.IntVar(&trace, "trace", 0, "1 = traced run printing per-layer metrics")
	fs.BoolVar(&cfg.small, "small", false, "reduced sizes (self-test)")
	fs.StringVar(&cfg.traceDir, "trace-dir", ".bench_build/traces", "where a traced run writes its spans")
	fs.StringVar(&cfg.root, "root", ".", "repository checkout to fingerprint")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	cfg.trace = trace == 1
	w, ok := workloads[cfg.workload]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n",
			cfg.workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if cfg.seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive")
		return 2
	}
	res, err := bench(cfg, w, stdout, recordedDigests)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// bench runs episodes of w until cfg.seconds have passed and folds them
// into the result. A traced run alternates untraced and traced episodes,
// so the same process measures the tracing overhead.
func bench(cfg config, w benchWorkload, out io.Writer, recorded map[string]string) (*result, error) {
	fp := fingerprint(cfg.root)
	fmt.Fprintf(out, "# perfbench %s seed=%d trace=%v small=%v\n", cfg.workload, cfg.seed, cfg.trace, cfg.small)
	fmt.Fprintf(out, "# machine %s\n", fp)

	var micros []microResult
	if cfg.trace {
		micros = runMicros(cfg.small)
		for _, m := range micros {
			fmt.Fprintf(out, "# micro %-28s %12.1f ns/op %6d allocs/op\n", m.metric, m.nsPerOp, m.allocsPerOp)
		}
	}

	tr := newTracer()
	var plain, traced []*episode
	start := time.Now()
	budget := time.Duration(cfg.seconds * float64(time.Second))
	for i := 0; ; i++ {
		var t *tracer
		// Each episode is another instance of the workload, so a run's
		// medians average over several topologies and storms, not one;
		// a traced episode repeats the instance of the untraced one
		// before it.
		k := i
		if cfg.trace {
			k = i / 2
			if i%2 == 1 {
				t = tr
				t.startEpisode()
			}
		}
		ep, err := w.episode(&env{seed: instanceSeed(cfg.seed, k), small: cfg.small, tr: t})
		if err != nil {
			return nil, fmt.Errorf("%s episode %d: %w", cfg.workload, i, err)
		}
		ep.instance = k
		if t != nil {
			t.finishEpisode(ep, w.simulated)
			traced = append(traced, ep)
		} else {
			plain = append(plain, ep)
		}
		fmt.Fprintf(out, "# episode %d instance=%d traced=%v setup=%.4fs window=%.3fs frames=%d pkts/s=%.0f cpu_ns/pkt=%.1f heap=%.1fMB digest=%s\n",
			i, k, t != nil, ep.setup.Seconds(), ep.window.Seconds(), ep.frames, ep.pktsPerSec(),
			ep.cpuNsPerPkt(), float64(ep.heapLive)/(1<<20), ep.digest)
		enough := len(plain) >= minEpisodes && (!cfg.trace || len(traced) >= minEpisodes)
		if enough && time.Since(start) >= budget {
			break
		}
	}

	res := &result{Correct: true, Metrics: map[string]metric{}}
	all := append(append([]*episode(nil), plain...), traced...)
	var errs []string
	for _, ep := range all {
		res.Attempted += ep.sent
		res.Failed += ep.failed
		errs = append(errs, ep.errs...)
	}
	errs = append(errs, checkDigests(cfg, all, recorded)...)
	if res.Failed > 0 {
		errs = append(errs, fmt.Sprintf("%d of %d frames failed", res.Failed, res.Attempted))
	}
	for _, e := range dedupe(errs) {
		fmt.Fprintf(out, "# FAIL %s\n", e)
		res.Correct = false
	}

	if !cfg.trace {
		for _, m := range endToEnd {
			res.Metrics[m.name] = metric{Value: m.of(plain), Unit: m.unit}
		}
		return res, nil
	}

	layer := perLayer(plain, traced, micros, tr)
	for _, m := range perLayerMetrics {
		v, ok := layer[m.name]
		if !ok {
			v = 0 // the workload bypasses this layer
		}
		res.Metrics[m.name] = metric{Value: v, Unit: m.unit}
	}
	path, err := tr.write(cfg, fp)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "# spans %d written to %s\n", len(tr.spans), path)
	return res, nil
}

// dedupe drops repeated check failures (every episode reports its own)
// while keeping first-seen order.
func dedupe(in []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, s := range in {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
