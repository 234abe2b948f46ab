// Command perfbench is the simulator's end-to-end and per-layer
// benchmark. It drives internal/testbed from outside: a seeded open-loop
// arrival schedule is generated before any timer starts and fed through
// Generator.Launch, one workload per process, in a single goroutine.
//
// Run it from the repository root through its build wrapper:
//
//	bash perfbench/run.sh --workload light --seed 1 --seconds 10 --trace 0
//
// Workloads are light, saturated and fleet (see workloads in
// workload.go); --workload all (the default) runs them one after
// another, each ending with its own result line. Seed 1 is the default;
// seed 7919 is held out for confirming a claimed gain on inputs not used
// while writing it.
//
// With --trace 0 the benchmark repeats the workload, each repetition a
// cold start on the same inputs, until --seconds have passed, and
// reports medians over repetitions of the end-to-end metrics. With
// --trace 1 it alternates untraced and traced repetitions and then times
// each layer in isolation on inputs captured from the traced run, and
// reports the per-layer metrics; spans go to <out>/spans-*.tsv.
//
// Every repetition passes output checks (conservation identities,
// counter keys, sketch-vs-exact quantiles, and a digest of the model
// outputs that must repeat exactly). The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"syscall"
	"time"
)

const (
	defaultSeed = 1
	// heldOutSeed is reserved for confirming claims; do not tune on it.
	heldOutSeed = 7919
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	name := flag.String("workload", "all", "workload: light, saturated, fleet, or all of them in turn")
	seed := flag.Uint64("seed", defaultSeed, fmt.Sprintf("input seed (default %d; %d is held out)", defaultSeed, heldOutSeed))
	seconds := flag.Int("seconds", 10, "measurement time in seconds, per workload")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	out := flag.String("out", ".bench_build", "directory for span files")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return errors.New("--seconds must be ≥ 1 and --trace 0 or 1")
	}
	selected := workloads
	if *name != "all" {
		w, ok := findWorkload(*name)
		if !ok {
			return fmt.Errorf("unknown workload %q", *name)
		}
		selected = []workload{w}
	}
	clock := calibrateClock()
	for _, w := range selected {
		if err := runWorkload(w, *seed, time.Duration(*seconds)*time.Second, *trace, clock, *out); err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
	}
	return nil
}

// runWorkload measures one workload and prints its reproducibility
// record, its report and, last, its result line.
func runWorkload(w workload, seed uint64, budget time.Duration, trace int, clock clockCost, out string) error {
	fmt.Println("record", record(w, seed, trace, clock))
	// Inputs are generated before any timer starts.
	in := w.generate(seed)
	var res *result
	var err error
	if trace == 0 {
		res, err = measure(w, in, budget)
	} else {
		res, err = traceRun(w, in, budget, clock, out)
	}
	if err != nil {
		return err
	}
	if err := checkSpec(res, trace); err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// checkSpec verifies that the result reports exactly the metrics
// BENCHMARK.json declares for the mode, in the declared units, and that
// the interaction record covers every per-layer metric.
func checkSpec(res *result, trace int) error {
	type named struct{ Name, Unit string }
	var spec struct {
		EndToEnd []named `json:"end_to_end"`
		PerLayer []named `json:"per_layer"`
	}
	var inter struct {
		Metrics []named `json:"metrics"`
	}
	for path, v := range map[string]any{"BENCHMARK.json": &spec, "perfbench/interactions.json": &inter} {
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(b, v); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	want := spec.EndToEnd
	if trace == 1 {
		want = spec.PerLayer
	}
	if len(want) != len(res.Metrics) {
		return fmt.Errorf("reported %d metrics, BENCHMARK.json declares %d", len(res.Metrics), len(want))
	}
	for _, m := range want {
		if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
			return fmt.Errorf("metric %s (%s) declared in BENCHMARK.json is not reported in that unit", m.Name, m.Unit)
		}
	}
	for i, m := range spec.PerLayer {
		if i >= len(inter.Metrics) || inter.Metrics[i].Name != m.Name {
			return fmt.Errorf("perfbench/interactions.json does not list per-layer metric %s in order", m.Name)
		}
	}
	if len(inter.Metrics) != len(spec.PerLayer) {
		return fmt.Errorf("perfbench/interactions.json lists %d metrics, BENCHMARK.json %d", len(inter.Metrics), len(spec.PerLayer))
	}
	return nil
}

// setupsPerRep is how many extra set-ups each repetition times: set-up
// is short, so it is sampled more often than the full run.
const setupsPerRep = 4

// rep is one untraced repetition.
type rep struct {
	// setup holds the repetition's own set-up time and setupsPerRep more
	// samples of it.
	setup []time.Duration
	// cpu is the process CPU time from construction through drain.
	cpu            time.Duration
	mallocs, bytes uint64
	heapInuse      uint64
	out            *outcome
}

// runRep builds, runs and checks one cold-start repetition. Set-up is
// wall time from testbed construction until the first arrival is
// scheduled. The run is charged in process CPU time, construction
// through drain: time the host gives to other tenants is not counted,
// the garbage collector's work on other cores is. The heap is measured
// after a GC with the testbed still reachable.
func runRep(w workload, in *inputs, rts []time.Duration) (*rep, *cluster) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	t0 := time.Now()
	c := w.build(in, rts)
	c.start()
	setup := time.Since(t0)
	c.finish()
	cpu := cpuTime() - cpu0
	runtime.ReadMemStats(&m1)
	r := &rep{
		setup:   []time.Duration{setup},
		cpu:     cpu,
		mallocs: m1.Mallocs - m0.Mallocs,
		bytes:   m1.TotalAlloc - m0.TotalAlloc,
		out:     c.check(),
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	r.heapInuse = m1.HeapInuse
	runtime.KeepAlive(c)
	for i := 0; i < setupsPerRep; i++ {
		runtime.GC()
		t0 := time.Now()
		w.build(in, nil).start()
		r.setup = append(r.setup, time.Since(t0))
	}
	return r, c
}

// measure repeats the workload until the budget is spent (at least
// minReps times) and reports medians of the end-to-end metrics.
func measure(w workload, in *inputs, budget time.Duration) (*result, error) {
	const minReps = 3
	rts := make([]time.Duration, 0, len(in.at))
	var reps []*rep
	start := time.Now()
	for len(reps) < minReps || time.Since(start) < budget {
		r, c := runRep(w, in, rts)
		rts = c.rts
		reps = append(reps, r)
	}
	res, v := tally(w, reps)
	q := float64(len(in.at))
	res.Metrics = map[string]metric{
		"sim_qps":               {median(reps, func(r *rep) float64 { return q / r.cpu.Seconds() }), "1/s"},
		"setup_s":               {setupMedian(reps), "s"},
		"allocs_per_query":      {median(reps, func(r *rep) float64 { return float64(r.mallocs) / q }), "count"},
		"alloc_bytes_per_query": {median(reps, func(r *rep) float64 { return float64(r.bytes) / q }), "B"},
		"heap_live_mb":          {median(reps, func(r *rep) float64 { return float64(r.heapInuse) / (1 << 20) }), "MB"},
		"sim_rt_p50_ms":         {ms(v.p50), "ms"},
		"sim_rt_p999_ms":        {ms(v.p999), "ms"},
	}
	fmt.Printf("%-9s reps=%d queries/rep=%d digest=%016x\n", w.name, len(reps), len(in.at), v.digest)
	for _, k := range slices.Sorted(maps.Keys(res.Metrics)) {
		m := res.Metrics[k]
		fmt.Printf("  %-22s %14.6g %s\n", k, m.Value, m.Unit)
	}
	fmt.Printf("  %-22s %14.6g fraction  (refused %d + unfinished %d of %d offered, plus failed checks)\n",
		"sim_fail_frac", float64(res.Failed)/float64(res.Attempted)+v.failFrac(), v.refused, v.unfinished, v.offered)
	fmt.Printf("  %-22s %14d samples\n", "sim_rt_n", v.samples)
	return res, nil
}

// tally checks every repetition's outcome against the first (the model
// outputs must repeat exactly) and fills attempted and failed: the
// queries of every repetition, and those of repetitions that failed an
// output check. It returns the first repetition's outcome.
func tally(w workload, reps []*rep) (*result, *outcome) {
	first := reps[0].out
	res := &result{Correct: true}
	for i, r := range reps {
		if r.out.digest != first.digest || r.out.p999 != first.p999 || r.out.p50 != first.p50 {
			r.out.failf("repetition %d: digest %016x differs from repetition 0's %016x", i, r.out.digest, first.digest)
		}
		res.Attempted += int(r.out.offered)
		if len(r.out.errs) > 0 {
			res.Correct = false
			res.Failed += int(r.out.offered)
			for _, e := range r.out.errs {
				fmt.Fprintf(os.Stderr, "%s repetition %d: check failed: %v\n", w.name, i, e)
			}
		}
	}
	return res, first
}

// setupMedian is the median over every set-up sample of every
// repetition.
func setupMedian(reps []*rep) float64 {
	var s []float64
	for _, r := range reps {
		for _, d := range r.setup {
			s = append(s, d.Seconds())
		}
	}
	return medianOf(s)
}

// cpuTime is the CPU time the process has used, all threads.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("perfbench: getrusage: %v", err))
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func median[T any](xs []T, f func(T) float64) float64 {
	vals := make([]float64, len(xs))
	for i, x := range xs {
		vals[i] = f(x)
	}
	return medianOf(vals)
}

func medianOf(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := slices.Clone(vals)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// clockCost is the measured cost of reading the clock.
type clockCost struct {
	// call is the ns one time.Now call takes.
	call float64
	// interval is the ns an interval measured between two reads gains
	// from them: the part of the first read after its sample plus the
	// part of the second before it.
	interval float64
}

// calibrateClock measures the clock in the same process: medians over
// batches, so a preempted batch does not skew them.
func calibrateClock() clockCost {
	const batches, calls = 21, 20000
	call := make([]float64, batches)
	interval := make([]float64, batches)
	base := time.Now()
	for b := range call {
		t0 := time.Now()
		for i := 0; i < calls; i++ {
			_ = time.Now()
		}
		call[b] = float64(time.Since(t0).Nanoseconds()) / calls
		var sum time.Duration
		for i := 0; i < calls/2; i++ {
			a := time.Since(base)
			sum += time.Since(base) - a
		}
		interval[b] = float64(sum.Nanoseconds()) / (calls / 2)
	}
	return clockCost{call: medianOf(call), interval: medianOf(interval)}
}

// record describes the run well enough to repeat it: inputs, machine,
// toolchain and source revision.
func record(w workload, seed uint64, trace int, clock clockCost) string {
	rec := map[string]any{
		"workload":   w.name,
		"seed":       seed,
		"trace":      trace,
		"queries":    w.queries,
		"load":       w.load,
		"rate_qps":   w.rate(),
		"servers":    w.servers(),
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"revision":   vcsRevision(),
		"source":     sourceDigest(),
		"clock_ns":   clock.call,
	}
	if w.fleet {
		rec["vips"], rec["pools"], rec["zipf"] = fleetVIPs, fleetPools, fleetZipf
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return fmt.Sprintf("{%q: %q}", "error", err)
	}
	return string(b)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// vcsRevision is the git revision stamped into the binary, when it was
// built inside a git checkout.
func vcsRevision() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", ""
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
		if rev != "" {
			return rev + dirty
		}
	}
	return "none"
}

// sourceDigest hashes the repository's Go sources and go.mod files,
// identifying the code under test when no git revision is available.
// The benchmark runs from the repository root.
func sourceDigest() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", path, len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
