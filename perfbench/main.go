// Command perfbench is natix's benchmark: one command that builds a
// workload from a seed, measures it for a fixed time, checks every answer
// against an oracle, and prints the metrics named in BENCHMARK.json.
//
//	bash perfbench/run.sh --workload fig10-store --seed 1 --seconds 15 --trace 0
//
// Workloads (see README.md for why each was chosen and which layers it
// exercises or bypasses):
//
//	fig10-store   paper Fig. 10, d01-d12 on a 100k-publication store file
//	fig5-mem-par  paper Fig. 5, q1-q4 in memory with Options.Workers = GOMAXPROCS
//	serve-mix     open-loop served traffic with writes through a 2-shard cluster
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the same
// workload alternately untraced and traced, derives the per-layer metrics
// from spans the benchmark records around its own calls, and prints the
// tracing overhead. The last stdout line is one JSON object; a wrong
// answer exits non-zero.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// specMetric is one metric entry of BENCHMARK.json.
type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// spec is the part of BENCHMARK.json the program reads: the workload
// names and the metric names and units it must print.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func loadSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
	// dir is the workload's scratch directory inside the checkout.
	dir string
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects one run's metrics, counts and validity verdicts.
type report struct {
	values    map[string]metricValue
	attempted int
	failed    int // errors and refusals
	wrong     int // answers that differ from the oracle
	invalid   []string
}

func newReport() *report { return &report{values: map[string]metricValue{}} }

// put records a metric and prints it with its unit and provenance.
func (r *report) put(name, unit string, v float64, detail string) {
	r.values[name] = metricValue{Value: v, Unit: unit}
	fmt.Printf("metric %-34s %14.6g %-6s %s\n", name, v, unit, detail)
}

// markInvalid records why the run's numbers must not be used.
func (r *report) markInvalid(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.invalid = append(r.invalid, msg)
	fmt.Println("run-validity: INVALID:", msg)
}

// tail reports a latency tail at a fixed percentile, requiring at least
// ten samples beyond it.
func (r *report) tail(name string, xs []float64, p float64) {
	v, beyond := percentile(xs, p)
	r.put(name, "ms", v, fmt.Sprintf("(p%g, n=%d, %d beyond)", p*100, len(xs), beyond))
	if beyond < 10 {
		r.markInvalid("%s: only %d samples beyond p%g", name, beyond, p*100)
	}
}

// timedSetup builds a workload's inputs n times (once in a traced run),
// closing every build but the last, and returns the last with each
// build's duration. setup_s is their median, so one slow set-up does not
// move it.
func timedSetup[T interface{ close() }](cfg config, n int, build func() (T, error)) (T, []float64, error) {
	if cfg.traced {
		n = 1
	}
	var last T
	var times []float64
	for i := 0; i < n; i++ {
		if i > 0 {
			last.close()
			runtime.GC()
		}
		t0 := time.Now()
		w, err := build()
		if err != nil {
			var zero T
			return zero, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
		last = w
	}
	return last, times, nil
}

func main() { os.Exit(run()) }

func run() int {
	var (
		cfg     config
		seconds int
		trace   int
	)
	flag.StringVar(&cfg.workload, "workload", "", "workload name from BENCHMARK.json")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.IntVar(&seconds, "seconds", 15, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run printing the per-layer metrics")
	flag.Parse()
	cfg.seconds = time.Duration(seconds) * time.Second
	cfg.traced = trace == 1

	sp, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	known := false
	for _, w := range sp.Workloads {
		known = known || w.Name == cfg.workload
	}
	if !known || seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", cfg.workload, seconds, trace)
		return 2
	}
	cfg.dir = filepath.Join(".bench_build", "perfbench", cfg.workload)
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}

	fmt.Printf("perfbench: workload=%s seed=%d seconds=%d trace=%d\n", cfg.workload, cfg.seed, seconds, trace)
	fmt.Printf("run-validity: gomaxprocs=%d nproc=%d go=%s seed=%d\n",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), cfg.seed)

	rep := newReport()
	switch cfg.workload {
	case "fig10-store":
		err = runFig10(cfg, rep)
	case "fig5-mem-par":
		err = runFig5(cfg, rep)
	case "serve-mix":
		err = runServeMix(cfg, rep)
	default:
		err = fmt.Errorf("workload %q is listed in BENCHMARK.json but not implemented", cfg.workload)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}

	rep.put("error_ratio", "ratio", ratio(float64(rep.failed+rep.wrong), float64(rep.attempted)),
		fmt.Sprintf("(failed, refused and wrong over %d attempted)", rep.attempted))

	list := sp.EndToEnd
	if cfg.traced {
		list = sp.PerLayer
	}
	out := map[string]metricValue{}
	for _, m := range list {
		v, ok := rep.values[m.Name]
		if !ok && cfg.traced {
			// A layer this workload does not run: nothing was measured.
			v, ok = metricValue{Value: 0, Unit: m.Unit}, true
		}
		if !ok || v.Unit != m.Unit {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s not measured in %s (have %+v)\n", m.Name, m.Unit, v)
			return 1
		}
		out[m.Name] = v
	}
	// Wrong answers outrank an invalid run: they exit 1 with the result.
	if len(rep.invalid) > 0 && rep.wrong == 0 {
		fmt.Fprintln(os.Stderr, "perfbench: run invalid, no result reported")
		return 3
	}
	if len(rep.invalid) == 0 {
		fmt.Println("run-validity: valid")
	}
	res := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{rep.wrong == 0, rep.attempted, rep.failed + rep.wrong, out}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if rep.wrong > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d wrong answers\n", rep.wrong)
		return 1
	}
	return 0
}
