// Command tango-bench is the perf-regression harness's CLI face: it runs
// the dataplane micro-benchmarks (encap, decap, the 1 KiB UDP checksum,
// link traversal), the scheduler micro-benchmarks (timing wheel vs. the
// preserved binary-heap reference, at 10k pending events, plus one
// coordinator epoch that drains 256 cross-partition events), the
// flow-table micros (steady emit and arrive/depart churn over a live
// population — see the flows field in BENCH.json), and the TE micros
// (an incremental move evaluation and a full Link-Guided Local Search
// convergence on a mesh-shaped placement instance) through
// testing.Benchmark, optionally times the full E2/E10 experiment
// reproductions and the whole suite serial-vs-parallel, and emits the
// results as machine-readable JSON for CI to archive and diff across
// commits.
//
// Usage:
//
//	tango-bench [-out BENCH.json] [-full] [-check] [-parallel N]
//	            [-shards N] [-e12] [-e14] [-sites N]
//	            [-history BENCH_HISTORY.json] [-compare FILE] [-tolerance 0.20]
//
// -check exits non-zero if any micro-benchmark allocates in steady state
// or if the timing wheel loses its margin over the reference heap on the
// schedule+fire micro, making both perf invariants enforceable outside
// `go test` (CI runs `tango-bench -check` as its bench smoke job).
//
// -shards N runs a reduced E12 storm mesh on N shard workers as a smoke
// test (its checks must pass for -check to succeed), and is recorded in
// the report metadata; CI runs the {1, 4} matrix. -e12 times the full
// 64-site / 10k-tunnel E12 at 1 worker vs. 8 and reports the speedup —
// with -check, on a machine with 8+ CPUs, a speedup below 3x fails.
// -e14 runs a reduced E14 discovery sweep (a generated internet swept
// by concurrent discoverers, scored against valley-free ground truth)
// and, with -check, fails if any of its checks fail. Every report
// carries a machine fingerprint (CPU model, CPU count, GOMAXPROCS, Go
// version) so numbers are never compared across machines by mistake.
//
// -history appends this run (git SHA, timestamp, full report) to a JSON
// log so numbers accumulate across commits; pass -history ” to skip.
// -compare FILE diffs the run against a baseline report and exits
// non-zero on a >tolerance ns/op regression, any allocs/op increase, or
// a >2×tolerance experiment wall-clock regression (wall clocks are
// noisier than micros, so they get the wider band). It also exits
// non-zero, before comparing anything, when both reports carry
// fingerprints and they differ; a baseline without one is compared
// with a warning.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"tango/internal/experiments"
	"tango/internal/perf"
)

// MicroResult is one micro-benchmark measurement.
type MicroResult struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	MBPerSec    float64 `json:"mb_per_sec"`
}

// ExperimentResult is the wall-clock cost of one full experiment
// reproduction (virtual-time duration fixed, so runs are comparable).
type ExperimentResult struct {
	Name        string  `json:"name"`
	WallClockMs float64 `json:"wall_clock_ms"`
	ChecksPass  bool    `json:"checks_pass"`
}

// SuiteResult compares the full experiment suite run serially against the
// same suite on a worker pool (one simulation engine per goroutine).
type SuiteResult struct {
	Experiments int     `json:"experiments"`
	Workers     int     `json:"workers"`
	SerialMs    float64 `json:"serial_ms"`
	ParallelMs  float64 `json:"parallel_ms"`
	Speedup     float64 `json:"speedup"`
}

// ShardResult is the E12 scale entry: the same 64-site / 10k-tunnel
// storm simulation timed at 1 shard worker vs. 8.
type ShardResult struct {
	Name       string  `json:"name"`
	Sites      int     `json:"sites"`
	Tunnels    int     `json:"tunnels"`
	Workers1Ms float64 `json:"workers1_ms"`
	Workers8Ms float64 `json:"workers8_ms"`
	Speedup    float64 `json:"speedup"`
	ChecksPass bool    `json:"checks_pass"`
}

// LoopbackResult records the two-process loopback run (-loopback):
// two tangod processes on real UDP sockets over 127.0.0.1, judged
// against the simulated E8-live reference, plus the sustained Tango
// frame rate measured from their /metrics scrapes.
type LoopbackResult struct {
	PathA       int     `json:"path_a"`
	PathB       int     `json:"path_b"`
	MatchesSim  bool    `json:"matches_sim"`
	ConvergedMs float64 `json:"converged_ms"`
	PPS         float64 `json:"pps"`
	Frames      uint64  `json:"frames"`
	WindowMs    float64 `json:"window_ms"`
}

// Report is the BENCH.json schema. CPUModel, NumCPU, GOMAXPROCS and
// GoVersion fingerprint the machine (see fingerprint); Shards and Flows
// are recorded so perf history stays comparable across shard counts and
// flow-table populations.
type Report struct {
	CPUModel   string `json:"cpu_model,omitempty"`
	NumCPU     int    `json:"num_cpu,omitempty"`
	GoVersion  string `json:"go_version,omitempty"`
	GOMAXPROCS int    `json:"gomaxprocs,omitempty"`
	Shards     int    `json:"shards,omitempty"`
	// Flows is the flow-table population behind the FlowEmit and
	// FlowArriveDepart micros.
	Flows       int                `json:"flows,omitempty"`
	Micro       []MicroResult      `json:"micro"`
	Experiments []ExperimentResult `json:"experiments,omitempty"`
	Suite       *SuiteResult       `json:"suite,omitempty"`
	Shard       *ShardResult       `json:"shard,omitempty"`
	Loopback    *LoopbackResult    `json:"loopback,omitempty"`
}

// HistoryEntry is one record in the BENCH_HISTORY.json append log.
type HistoryEntry struct {
	SHA    string `json:"sha"`
	Time   string `json:"time"`
	Report Report `json:"report"`
}

// wheelHeapMargin is the acceptance bar -check enforces: the wheel's
// schedule+fire must cost at most this fraction of the heap's on the same
// machine, keeping the comparison meaningful across hardware.
const wheelHeapMargin = 0.75

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		out       = flag.String("out", "BENCH.json", "file to write results to ('-' for stdout)")
		full      = flag.Bool("full", false, "also time the full E2/E10 experiment reproductions")
		check     = flag.Bool("check", false, "exit non-zero on per-op allocations or a lost wheel-vs-heap margin")
		parallel  = flag.Int("parallel", 0, "also time the full suite serial vs. N workers (0 = skip)")
		shards    = flag.Int("shards", 0, "also run a reduced E12 storm mesh on N shard workers as a smoke test (0 = skip)")
		e12       = flag.Bool("e12", false, "also time the full E12 scale experiment at 1 shard worker vs. 8")
		e14       = flag.Bool("e14", false, "also run a reduced E14 discovery sweep as a smoke test")
		loopback  = flag.Bool("loopback", false, "also run the two-process UDP loopback deployment (E8-live) and record sustained pps")
		tangodBin = flag.String("tangod", "", "tangod binary for -loopback ('' builds ./cmd/tangod into a temp dir)")
		sites     = flag.Int("sites", 0, "override the site count for -shards/-e12/-e14 (0 = defaults: 12 smoke, 64 full, 16 sweep)")
		history   = flag.String("history", "BENCH_HISTORY.json", "append (sha, time, report) to this JSON log ('' = skip)")
		compare   = flag.String("compare", "", "baseline report to diff against; regressions exit non-zero")
		tolerance = flag.Float64("tolerance", 0.20, "allowed fractional ns/op regression for -compare")
	)
	flag.Parse()

	micro := []struct {
		name string
		fn   func(*testing.B)
	}{
		{"Encap", perf.BenchEncap},
		{"Decap", perf.BenchDecap},
		{"Checksum1KiB", perf.BenchChecksum},
		{"LinkTraverse", perf.BenchLinkTraverse},
		{"SchedFire10k", perf.BenchSchedFire},
		{"SchedFire10kHeap", perf.BenchSchedFireHeap},
		{"Cancel10k", perf.BenchCancel},
		{"Cancel10kHeap", perf.BenchCancelHeap},
		{"CrossDrain256", perf.BenchCrossDrain},
		{"ObsCounter", perf.BenchObsCounter},
		{"ObsHistogram", perf.BenchObsHistogram},
		{"FlowEmit", perf.BenchFlowEmit},
		{"FlowArriveDepart", perf.BenchFlowArriveDepart},
		{"TEMoveEval", perf.BenchTEMoveEval},
		{"SolverConverge", perf.BenchSolverConverge},
	}

	rep := Report{
		CPUModel:   cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Shards:     *shards,
		Flows:      perf.FlowBenchFlows,
	}
	fmt.Printf("machine %s\n", rep.fingerprint())
	regressed := false
	for _, m := range micro {
		res := testing.Benchmark(m.fn)
		mr := MicroResult{
			Name:        m.name,
			Iterations:  res.N,
			NsPerOp:     float64(res.T.Nanoseconds()) / float64(res.N),
			AllocsPerOp: res.AllocsPerOp(),
			BytesPerOp:  res.AllocedBytesPerOp(),
		}
		if res.Bytes > 0 && res.T > 0 {
			mr.MBPerSec = float64(res.Bytes*int64(res.N)) / 1e6 / res.T.Seconds()
		}
		rep.Micro = append(rep.Micro, mr)
		fmt.Printf("%-16s %12.1f ns/op %8d allocs/op %8d B/op\n",
			m.name, mr.NsPerOp, mr.AllocsPerOp, mr.BytesPerOp)
		if mr.AllocsPerOp != 0 {
			regressed = true
		}
	}
	if wheel, heap := findMicro(rep.Micro, "SchedFire10k"), findMicro(rep.Micro, "SchedFire10kHeap"); wheel != nil && heap != nil {
		fmt.Printf("%-16s %12.2fx heap schedule+fire cost (bar: <= %.2fx)\n",
			"wheel/heap", wheel.NsPerOp/heap.NsPerOp, wheelHeapMargin)
		if wheel.NsPerOp > wheelHeapMargin*heap.NsPerOp {
			fmt.Fprintf(os.Stderr, "FAIL: wheel schedule+fire %.1f ns/op exceeds %.2fx heap (%.1f ns/op)\n",
				wheel.NsPerOp, wheelHeapMargin, heap.NsPerOp)
			regressed = true
		}
	}

	if *full {
		drivers := []struct {
			name string
			fn   func(experiments.Config) *experiments.Result
			dur  time.Duration
		}{
			{"E2OWDComparison", experiments.E2OWDComparison, 10 * time.Minute},
			{"E10MeshOverlay", experiments.E10MeshOverlay, 90 * time.Second},
		}
		for _, d := range drivers {
			start := time.Now()
			res := d.fn(experiments.Config{Seed: 1, Duration: d.dur})
			elapsed := time.Since(start)
			rep.Experiments = append(rep.Experiments, ExperimentResult{
				Name:        d.name,
				WallClockMs: float64(elapsed.Nanoseconds()) / 1e6,
				ChecksPass:  res.Passed(),
			})
			fmt.Printf("%-16s %12.0f ms wall-clock  checks pass: %v\n",
				d.name, float64(elapsed.Milliseconds()), res.Passed())
		}
	}

	if *shards > 0 {
		smokeSites := *sites
		if smokeSites == 0 {
			smokeSites = 12
		}
		start := time.Now()
		res := experiments.E12ShardedStorm(experiments.Config{Seed: 1, Sites: smokeSites, Shards: *shards})
		elapsed := time.Since(start)
		rep.Experiments = append(rep.Experiments, ExperimentResult{
			Name:        fmt.Sprintf("E12Smoke%dw", *shards),
			WallClockMs: float64(elapsed.Nanoseconds()) / 1e6,
			ChecksPass:  res.Passed(),
		})
		fmt.Printf("E12 smoke (%d sites, %d workers) %8.0f ms wall-clock  checks pass: %v\n",
			smokeSites, *shards, float64(elapsed.Milliseconds()), res.Passed())
		if !res.Passed() {
			fmt.Fprintf(os.Stderr, "FAIL: E12 smoke checks failed at %d shard workers\n", *shards)
			regressed = true
		}
	}

	if *e12 {
		sr := timeShardScale(*sites)
		rep.Shard = sr
		fmt.Printf("E12 (%d sites, %d tunnels)  1 worker %.0f ms, 8 workers %.0f ms: %.2fx  checks pass: %v\n",
			sr.Sites, sr.Tunnels, sr.Workers1Ms, sr.Workers8Ms, sr.Speedup, sr.ChecksPass)
		if !sr.ChecksPass {
			fmt.Fprintln(os.Stderr, "FAIL: E12 checks failed")
			regressed = true
		}
		if runtime.NumCPU() >= 8 && sr.Speedup < 3.0 {
			fmt.Fprintf(os.Stderr, "FAIL: E12 speedup %.2fx at 8 workers is below the 3x bar on a %d-CPU machine\n",
				sr.Speedup, runtime.NumCPU())
			regressed = true
		}
	}

	if *e14 {
		sweepSites := *sites
		if sweepSites == 0 {
			sweepSites = 16
		}
		start := time.Now()
		res := experiments.E14DiscoverySweep(experiments.Config{Seed: 1, Sites: sweepSites, Shards: 4})
		elapsed := time.Since(start)
		rep.Experiments = append(rep.Experiments, ExperimentResult{
			Name:        "E14SweepSmoke",
			WallClockMs: float64(elapsed.Nanoseconds()) / 1e6,
			ChecksPass:  res.Passed(),
		})
		fmt.Printf("E14 sweep smoke (%d sites) %8.0f ms wall-clock  checks pass: %v\n",
			sweepSites, float64(elapsed.Milliseconds()), res.Passed())
		if !res.Passed() {
			fmt.Fprintln(os.Stderr, "FAIL: E14 sweep smoke checks failed")
			regressed = true
		}
	}

	if *loopback {
		lr, err := runLoopback(*tangodBin)
		if err != nil {
			fmt.Fprintf(os.Stderr, "loopback: %v\n", err)
			regressed = true
		}
		if lr != nil {
			rep.Loopback = lr
			fmt.Printf("loopback (E8-live)  a->path %d, b->path %d (matches sim: %v)  converged %.0f ms  sustained %.0f frames/s\n",
				lr.PathA, lr.PathB, lr.MatchesSim, lr.ConvergedMs, lr.PPS)
			if !lr.MatchesSim {
				regressed = true
			}
		}
	}

	if *parallel > 0 {
		rep.Suite = timeSuite(*parallel)
		fmt.Printf("suite (%d exps)  serial %.0f ms, %d workers %.0f ms: %.2fx\n",
			rep.Suite.Experiments, rep.Suite.SerialMs, rep.Suite.Workers,
			rep.Suite.ParallelMs, rep.Suite.Speedup)
	}

	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "encoding report: %v\n", err)
		return 1
	}
	enc = append(enc, '\n')
	if *out == "-" {
		os.Stdout.Write(enc)
	} else if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "writing %s: %v\n", *out, err)
		return 1
	} else {
		fmt.Printf("wrote %s\n", *out)
	}

	if *history != "" {
		if err := appendHistory(*history, rep); err != nil {
			fmt.Fprintf(os.Stderr, "appending %s: %v\n", *history, err)
			return 1
		}
		fmt.Printf("appended %s\n", *history)
	}

	if *compare != "" {
		violations, err := compareAgainst(*compare, rep, *tolerance)
		if err != nil {
			fmt.Fprintf(os.Stderr, "comparing against %s: %v\n", *compare, err)
			return 1
		}
		for _, v := range violations {
			fmt.Fprintf(os.Stderr, "REGRESSION: %s\n", v)
		}
		if len(violations) > 0 {
			return 1
		}
		fmt.Printf("no regressions against %s (tolerance %.0f%%)\n", *compare, *tolerance*100)
	}

	if *check && regressed {
		fmt.Fprintln(os.Stderr, "FAIL: a perf invariant regressed (allocations on the fast path or wheel-vs-heap margin lost)")
		return 1
	}
	return 0
}

// runLoopback builds tangod if needed and runs the two-process loopback
// deployment, verifying it converges like the simulated reference first.
func runLoopback(bin string) (*LoopbackResult, error) {
	if r := experiments.E8LiveSim(experiments.Config{Seed: 1}); !r.Passed() {
		return nil, fmt.Errorf("simulated E8-live reference did not converge")
	}
	if bin == "" {
		dir, err := os.MkdirTemp("", "tango-bench-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		bin = dir + "/tangod"
		build := exec.Command("go", "build", "-o", bin, "tango/cmd/tangod")
		if out, err := build.CombinedOutput(); err != nil {
			return nil, fmt.Errorf("go build tangod: %v\n%s", err, out)
		}
	}
	rep, err := experiments.RunE8Loopback(experiments.LoopbackConfig{Tangod: bin, Measure: 2 * time.Second})
	if rep == nil {
		return nil, err
	}
	return &LoopbackResult{
		PathA:       rep.PathA,
		PathB:       rep.PathB,
		MatchesSim:  rep.MatchesSim,
		ConvergedMs: float64(rep.ConvergedIn.Nanoseconds()) / 1e6,
		PPS:         rep.PPS,
		Frames:      rep.Frames,
		WindowMs:    float64(rep.Window.Nanoseconds()) / 1e6,
	}, err
}

func findMicro(ms []MicroResult, name string) *MicroResult {
	for i := range ms {
		if ms[i].Name == name {
			return &ms[i]
		}
	}
	return nil
}

// timeSuite runs all eleven experiments twice — serially, then on a
// worker pool — with per-experiment default durations, and reports the
// wall clocks. Results are discarded; the runner's own test asserts the
// parallel results equal the serial ones.
func timeSuite(workers int) *SuiteResult {
	cfg := experiments.Config{Seed: 1}
	start := time.Now()
	serial := experiments.All(cfg)
	serialMs := float64(time.Since(start).Nanoseconds()) / 1e6

	jobs := []experiments.Job{
		{ID: "e1", Cfg: cfg, Run: experiments.E1PathDiscovery},
		{ID: "e2", Cfg: cfg, Run: experiments.E2OWDComparison},
		{ID: "e3", Cfg: cfg, Run: experiments.E3Jitter},
		{ID: "e4", Cfg: cfg, Run: experiments.E4RouteChange},
		{ID: "e5", Cfg: cfg, Run: experiments.E5Instability},
		{ID: "e6", Cfg: cfg, Run: experiments.E6InOrderImpact},
		{ID: "e7", Cfg: cfg, Run: experiments.E7MeasurementSoundness},
		{ID: "e8", Cfg: cfg, Run: experiments.E8DataPlaneCost},
		{ID: "e9", Cfg: cfg, Run: experiments.E9LossReorder},
		{ID: "e10", Cfg: cfg, Run: experiments.E10MeshOverlay},
		{ID: "e11", Cfg: cfg, Run: experiments.E11Failover},
	}
	start = time.Now()
	experiments.RunJobs(jobs, workers)
	parallelMs := float64(time.Since(start).Nanoseconds()) / 1e6

	return &SuiteResult{
		Experiments: len(serial),
		Workers:     workers,
		SerialMs:    serialMs,
		ParallelMs:  parallelMs,
		Speedup:     serialMs / parallelMs,
	}
}

// timeShardScale runs the full E12 scale experiment twice — 1 shard
// worker, then 8 — and reports the wall clocks. The two runs simulate the
// identical event sequence (the shard-invariance property), so the ratio
// is a clean measure of the parallel engine.
func timeShardScale(sites int) *ShardResult {
	cfg := experiments.Config{Seed: 1, Sites: sites, Shards: 1}
	start := time.Now()
	one := experiments.E12ShardedStorm(cfg)
	oneMs := float64(time.Since(start).Nanoseconds()) / 1e6
	cfg.Shards = 8
	start = time.Now()
	eight := experiments.E12ShardedStorm(cfg)
	eightMs := float64(time.Since(start).Nanoseconds()) / 1e6
	sr := &ShardResult{
		Name:       "E12ShardedStorm",
		Workers1Ms: oneMs,
		Workers8Ms: eightMs,
		Speedup:    oneMs / eightMs,
		ChecksPass: one.Passed() && eight.Passed(),
	}
	for _, row := range one.Rows {
		if len(row) != 2 {
			continue
		}
		switch row[0] {
		case "sites":
			sr.Sites, _ = strconv.Atoi(row[1])
		case "tunnels":
			sr.Tunnels, _ = strconv.Atoi(row[1])
		}
	}
	return sr
}

// gitSHA identifies the commit the numbers belong to; "unknown" outside a
// git checkout keeps the history usable from exported tarballs.
func gitSHA() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func appendHistory(path string, rep Report) error {
	var log []HistoryEntry
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &log); err != nil {
			return fmt.Errorf("existing log is not a JSON array: %w", err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	log = append(log, HistoryEntry{
		SHA:    gitSHA(),
		Time:   time.Now().UTC().Format(time.RFC3339),
		Report: rep,
	})
	enc, err := json.MarshalIndent(log, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(enc, '\n'), 0o644)
}

// cpuModel reads the CPU model name from /proc/cpuinfo; "unknown" where
// that file does not exist or names none.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fingerprint names the machine a report was measured on; "" for a
// report written before reports carried one.
func (r Report) fingerprint() string {
	if r.CPUModel == "" {
		return ""
	}
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s", r.CPUModel, r.NumCPU, r.GOMAXPROCS, r.GoVersion)
}

// compareAgainst diffs cur against the baseline report in path. Micros
// regress on ns/op beyond tolerance or any allocs/op increase;
// experiment wall clocks get twice the tolerance (they are noisier).
// Entries missing from the baseline are new and pass by definition.
// Reports from different machines are not comparable, so differing
// fingerprints are an error; a baseline without one (written before
// reports carried it) is compared with a warning.
func compareAgainst(path string, cur Report, tolerance float64) ([]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var base Report
	if err := json.Unmarshal(data, &base); err != nil {
		return nil, err
	}
	switch bf, cf := base.fingerprint(), cur.fingerprint(); {
	case bf == "":
		fmt.Fprintf(os.Stderr, "warning: baseline %s has no machine fingerprint; comparing anyway\n", path)
	case cf != "" && bf != cf:
		return nil, fmt.Errorf("machine fingerprints differ, so the numbers are not comparable:\n  baseline: %s\n  this run: %s", bf, cf)
	}
	var violations []string
	for _, c := range cur.Micro {
		b := findMicro(base.Micro, c.Name)
		if b == nil {
			continue
		}
		if b.NsPerOp > 0 && c.NsPerOp > b.NsPerOp*(1+tolerance) {
			violations = append(violations, fmt.Sprintf(
				"%s: %.1f ns/op vs baseline %.1f (+%.0f%%, tolerance %.0f%%)",
				c.Name, c.NsPerOp, b.NsPerOp, (c.NsPerOp/b.NsPerOp-1)*100, tolerance*100))
		}
		if c.AllocsPerOp > b.AllocsPerOp {
			violations = append(violations, fmt.Sprintf(
				"%s: %d allocs/op vs baseline %d — the zero-allocation invariant regressed",
				c.Name, c.AllocsPerOp, b.AllocsPerOp))
		}
	}
	for _, c := range cur.Experiments {
		for _, b := range base.Experiments {
			if b.Name != c.Name {
				continue
			}
			if b.WallClockMs > 0 && c.WallClockMs > b.WallClockMs*(1+2*tolerance) {
				violations = append(violations, fmt.Sprintf(
					"%s: %.0f ms vs baseline %.0f ms (+%.0f%%, tolerance %.0f%%)",
					c.Name, c.WallClockMs, b.WallClockMs,
					(c.WallClockMs/b.WallClockMs-1)*100, 2*tolerance*100))
			}
		}
	}
	return violations, nil
}
