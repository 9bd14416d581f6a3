// Command securetf-perfbench is the repository benchmark: it drives the
// public securetf facade through four workloads and reports end-to-end
// metrics from an untraced run, or per-layer metrics from a traced run.
//
// Build and run it from the repository root with
//
//	bash perfbench/run.sh --workload serve-densenet --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and metrics (name → value and unit), the gated
// metrics BENCHMARK.json lists. Lines before it print every metric with
// its unit, clock and direction, including the client-observed
// wall-clock throughput and latencies, which are reported but not gated.
// The exit code is non-zero when a correctness check fails or the run
// cannot report a metric honestly (for example, a serving run with too
// few requests for its p99 to have ten samples beyond it).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// instance is one workload set up and ready to measure.
type instance interface {
	// prepare computes the benchmark's reference answers; it runs after
	// set-up is timed.
	prepare() error
	// warmup runs untimed operations so first dials, TLS handshakes and
	// interpreter allocation stay out of the measurement.
	warmup() error
	// measure runs the workload for about d, recording spans when tr is
	// non-nil.
	measure(d time.Duration, tr *tracer) (*window, error)
	// layers returns the per-layer metrics of a traced window, plus the
	// isolated probes of layers off the workload's path.
	layers(w *window, tr *tracer, seed int64) (map[string]float64, error)
	// verify runs the end-of-run correctness checks.
	verify() error
	close()
}

// window is what one measurement saw.
type window struct {
	attempted, failed int
	// wrong counts answers that differ from the reference.
	wrong int
	// ops is the work completed in the workload's throughput unit.
	ops float64
	// lat holds one latency in ms per operation, +Inf for a failed one.
	lat []float64
	// done holds each successful operation's completion time, from the
	// start of the window; each completes per units of work.
	done    []time.Duration
	per     float64
	elapsed time.Duration
	// cpu is the process's user and system CPU time in the window.
	cpu time.Duration
	// vspan is the virtual time the busiest node's clock advanced.
	vspan  time.Duration
	layers map[string]float64
	errs   error
}

type workload struct {
	name string
	why  string
	// op names one unit of work: what ops_per_s, vops_per_s and
	// cpu_ms_per_op count.
	op string
	// p99 prints the client-observed p99 latency, and fails the run
	// when fewer than ten samples lie beyond it.
	p99   bool
	setup func(seed int64, sp spanRef) (instance, error)
}

var workloads = []workload{
	{
		name: "serve-densenet", op: "request", p99: true, setup: setupDensenet,
		why: "paper Fig. 5 model served through an attested router to one TLS gateway with micro-batching; the tflite FC kernel takes most CPU, so kernel work shows",
	},
	{
		name: "serve-digitize", op: "request", p99: true, setup: setupDigitize,
		why: "paper's document-digitization graph (ocr, classify, redact) over 3 TLS gateways: 3 hops per request, so transport shows; conv kernels, not FC",
	},
	{
		name: "train-cnn", op: "training sample (latency: one synchronous step)", setup: setupTrain,
		why: "paper Fig. 8 setup: synchronous MNIST CNN training, 2 workers x 2 PS shards over TLS; tf conv/matmul kernels and the dist codec take the CPU",
	},
	{
		name: "fed-secagg", op: "federated round", setup: setupFed,
		why: "FedAvg with pairwise-masked secure aggregation, 32 of 64 clients per round and quorum below the cohort; PRG masking dominates, kernel changes should not show",
	},
}

// An untraced run sets the workload up at least minSetups times and
// until minSetupTime has passed (at most maxSetups times); setup_s is
// the median, so cheap set-ups get enough repeats to be steady.
const (
	minSetups    = 3
	maxSetups    = 20
	minSetupTime = 2 * time.Second
)

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "seed every generated input derives from")
	seconds := flag.Int("seconds", 20, "measured seconds")
	traced := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run; 0 end-to-end metrics from an untraced run")
	flag.Parse()
	res, err := run(*name, *seed, time.Duration(*seconds)*time.Second, *traced == 1)
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

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

func run(name string, seed int64, d time.Duration, traced bool) (*result, error) {
	var wl *workload
	for i := range workloads {
		if workloads[i].name == name {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames(), ", "))
	}
	if d <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	fmt.Printf("workload %s (seed %d, %v, traced %v): %s\n", wl.name, seed, d, traced, wl.why)
	if traced {
		return runTraced(wl, seed, d)
	}
	return runUntraced(wl, seed, d)
}

func runUntraced(wl *workload, seed int64, d time.Duration) (*result, error) {
	var setups []float64
	var inst instance
	begin := time.Now()
	for len(setups) < minSetups || (len(setups) < maxSetups && time.Since(begin) < minSetupTime) {
		if inst != nil {
			inst.close()
			runtime.GC()
			debug.FreeOSMemory()
			// peak_rss_mb covers one set-up and the run, not the
			// garbage of the set-ups repeated to time set-up.
			if err := resetPeakRSS(); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		var err error
		if inst, err = wl.setup(seed, spanRef{}); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer inst.close()
	w, err := measured(inst, d, nil)
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}
	values := map[string]float64{
		"setup_s":       percentile(setups, 50),
		"peak_rss_mb":   rss,
		"cpu_ms_per_op": cpuPerOp(w),
		"vops_per_s":    w.ops / w.vspan.Seconds(),
	}
	fmt.Printf("%d operations attempted in %v: %d succeeded, %d failed, %d wrong; %d set-ups; an operation is %s\n",
		w.attempted, w.elapsed.Round(time.Millisecond), w.attempted-w.failed, w.failed, w.wrong, len(setups), wl.op)
	// Client-observed wall-clock figures are printed but not gated: on
	// a shared 2-vCPU virtual machine the hypervisor steals 1-25% of a
	// run's CPU time, which moves them 10-30% from run to run, more than
	// any bound the benchmark may set. CPU time per operation excludes
	// stolen time.
	printMetric(metricDef{Name: "ops_per_s", Unit: "1/s", Clock: wall, Better: "higher"}, chunkRate(w.done, w.per, throughputChunks), "")
	printMetric(metricDef{Name: "latency_p50_ms", Unit: "ms", Clock: wall, Better: "lower"}, percentile(w.lat, 50), "")
	if wl.p99 {
		p99, err := tail(w.lat, 99)
		if err != nil {
			return nil, err
		}
		printMetric(metricDef{Name: "latency_p99_ms", Unit: "ms", Clock: wall, Better: "lower"}, p99, fmt.Sprintf("  (%d samples beyond it)", beyond(len(w.lat), 99)))
	}
	fmt.Println("gated:")
	return report(endToEnd, values, w, inst.verify())
}

func runTraced(wl *workload, seed int64, d time.Duration) (*result, error) {
	tr := newTracer()
	sp := tr.root("setup")
	inst, err := wl.setup(seed, sp)
	sp.end()
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer inst.close()
	// The first half runs untraced, the second traced; the difference
	// in CPU time per operation is the tracing overhead.
	base, err := measured(inst, d/2, nil)
	if err != nil {
		return nil, err
	}
	w, err := timed(inst, d/2, tr)
	if err != nil {
		return nil, err
	}
	values, err := inst.layers(w, tr, seed)
	if err != nil {
		return nil, fmt.Errorf("layers: %w", err)
	}
	values["trace.overhead_pct"] = (cpuPerOp(w)/cpuPerOp(base) - 1) * 100
	spans := tr.snapshot()
	fmt.Println("span                                      count      p50        self p50   self total")
	for _, s := range summarize(spans) {
		fmt.Printf("%-40s %6d %10v %10v %12v\n", s.Name, s.Count, s.P50.Round(time.Microsecond), s.SelfP50.Round(time.Microsecond), s.SelfTotal.Round(time.Microsecond))
	}
	if err := dumpSpans(wl.name, seed, spans); err != nil {
		return nil, err
	}
	base.attempted += w.attempted
	base.failed += w.failed
	base.wrong += w.wrong
	return report(perLayer, values, base, inst.verify())
}

// measured prepares, warms up and measures an untraced window.
func measured(inst instance, d time.Duration, tr *tracer) (*window, error) {
	if err := inst.prepare(); err != nil {
		return nil, err
	}
	if err := inst.warmup(); err != nil {
		return nil, err
	}
	return timed(inst, d, tr)
}

// timed measures a window and the process CPU time it took.
func timed(inst instance, d time.Duration, tr *tracer) (*window, error) {
	before, err := cpuTime()
	if err != nil {
		return nil, err
	}
	w, err := inst.measure(d, tr)
	if err != nil {
		return nil, err
	}
	after, err := cpuTime()
	w.cpu = after - before
	return w, err
}

// report checks that every declared metric was measured and is a
// finite number, prints them, and assembles the result.
func report(defs []metricDef, values map[string]float64, w *window, verr error) (*result, error) {
	res := &result{Attempted: w.attempted, Failed: w.failed, Metrics: map[string]metricOut{}}
	for _, m := range defs {
		v, ok := values[m.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v: %d of %d operations failed: %v", m.Name, v, w.failed, w.attempted, w.errs)
		}
		res.Metrics[m.Name] = metricOut{Value: v, Unit: m.Unit}
		moves := ""
		if len(m.Moves) > 0 {
			moves = fmt.Sprintf("  moves %s on %s", strings.Join(m.Moves, ","), strings.Join(m.On, ","))
		}
		printMetric(m, v, moves)
	}
	var problems []error
	if w.wrong > 0 {
		problems = append(problems, fmt.Errorf("%d answers differ from the in-process reference", w.wrong))
	}
	if w.attempted < 1 {
		problems = append(problems, errors.New("no operation was attempted"))
	}
	if verr != nil {
		problems = append(problems, verr)
	}
	res.Correct = len(problems) == 0
	if !res.Correct {
		fmt.Fprintln(os.Stderr, "perfbench: correctness check failed:", errors.Join(problems...))
	}
	return res, nil
}

// printMetric prints one metric with its unit, clock and direction.
func printMetric(m metricDef, v float64, note string) {
	fmt.Printf("  %-32s %14.4f %-8s %-7s %s is better%s\n", m.Name, v, m.Unit, m.Clock, m.Better, note)
}

// cpuPerOp is the process CPU time per unit of work in a window.
func cpuPerOp(w *window) float64 { return ms(w.cpu) / w.ops }

// dumpSpans writes the traced run's spans, one JSON object a line,
// under .bench_build/spans in the working directory.
func dumpSpans(workload string, seed int64, spans []span) error {
	dir := filepath.Join(".bench_build", "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed)))
	if err != nil {
		return err
	}
	if err := writeSpans(f, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
