package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	securetf "github.com/securetf/securetf"
)

// Clocks a metric can be read on.
const (
	wall    = "wall"    // Go wall time on this host's CPU
	virtual = "virtual" // the calibrated SGX/SCONE cost model
	count   = "count"   // a count of work, bytes or a ratio
	cpu     = "cpu"     // CPU time the process ran, which excludes time the host stole
)

// metricDef is one metric's metadata. End-to-end metrics carry the
// bound BENCHMARK.json gives them; per-layer metrics name the
// end-to-end metrics they should move and the workloads where their
// layer does most work.
type metricDef struct {
	Name   string
	Unit   string
	Clock  string
	Better string
	Moves  []string
	On     []string
}

// endToEnd are the gated metrics a user of the system sees, reported on
// every workload from the untraced run. An operation is a request on
// serve-*, a training sample on train-cnn and a federated round on
// fed-secagg. cpu_ms_per_op is what the Go code costs on the CPU, all
// tiers running in this one process.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Clock: wall, Better: "lower"},
	{Name: "peak_rss_mb", Unit: "MiB", Clock: count, Better: "lower"},
	{Name: "cpu_ms_per_op", Unit: "ms", Clock: cpu, Better: "lower"},
	{Name: "vops_per_s", Unit: "1/vs", Clock: virtual, Better: "higher"},
}

var (
	serveW  = []string{"serve-densenet", "serve-digitize"}
	allW    = []string{"serve-densenet", "serve-digitize", "train-cnn", "fed-secagg"}
	cpuOnly = []string{"cpu_ms_per_op"}
	cpuAndV = []string{"cpu_ms_per_op", "vops_per_s"}
	vOnly   = []string{"vops_per_s"}
	setup   = []string{"setup_s"}
)

// perLayer are the metrics of single layers, reported from the traced
// run. Layers off a workload's path are measured by isolated probes at
// that workload's operating point (its model, batch and request size);
// see layers.go.
var perLayer = []metricDef{
	{Name: "tflite.invoke_ms", Unit: "ms", Clock: wall, Better: "lower", Moves: cpuOnly, On: []string{"serve-densenet"}},
	{Name: "tflite.gflops", Unit: "GFLOP/s", Clock: wall, Better: "higher", Moves: cpuOnly, On: []string{"serve-densenet"}},
	{Name: "tflite.weight_mb_per_invoke", Unit: "MiB", Clock: count, Better: "lower", Moves: cpuOnly, On: []string{"serve-densenet"}},
	{Name: "serving.gateway_rtt_ms", Unit: "ms", Clock: wall, Better: "lower", Moves: cpuAndV, On: serveW},
	{Name: "serving.rows_per_invoke", Unit: "rows", Clock: count, Better: "higher", Moves: cpuAndV, On: []string{"serve-densenet"}},
	{Name: "serving.vlatency_p50_ms", Unit: "vms", Clock: virtual, Better: "lower", Moves: cpuAndV, On: serveW},
	{Name: "serving.rejected", Unit: "count", Clock: count, Better: "lower", Moves: cpuAndV, On: serveW},
	{Name: "serving.wire_us", Unit: "us", Clock: wall, Better: "lower", Moves: cpuAndV, On: []string{"serve-digitize"}},
	{Name: "router.hop_ms", Unit: "ms", Clock: wall, Better: "lower", Moves: cpuAndV, On: []string{"serve-digitize"}},
	{Name: "router.step_vms.ocr", Unit: "vms", Clock: virtual, Better: "lower", Moves: cpuAndV, On: []string{"serve-digitize"}},
	{Name: "router.step_vms.classify", Unit: "vms", Clock: virtual, Better: "lower", Moves: cpuAndV, On: []string{"serve-digitize"}},
	{Name: "router.step_vms.redact", Unit: "vms", Clock: virtual, Better: "lower", Moves: cpuAndV, On: []string{"serve-digitize"}},
	{Name: "netshield.record_rtt_us", Unit: "us", Clock: wall, Better: "lower", Moves: []string{"cpu_ms_per_op", "setup_s"}, On: []string{"serve-digitize"}},
	{Name: "netshield.handshake_ms", Unit: "ms", Clock: wall, Better: "lower", Moves: []string{"cpu_ms_per_op", "setup_s"}, On: []string{"serve-digitize"}},
	{Name: "sgx.transitions_per_op", Unit: "count", Clock: count, Better: "lower", Moves: vOnly, On: []string{"serve-densenet", "train-cnn"}},
	{Name: "scone.async_syscalls_per_op", Unit: "count", Clock: count, Better: "lower", Moves: vOnly, On: []string{"serve-densenet", "train-cnn"}},
	{Name: "sgx.page_faults_per_op", Unit: "count", Clock: count, Better: "lower", Moves: vOnly, On: []string{"serve-densenet", "train-cnn"}},
	{Name: "sgx.mb_accessed_per_op", Unit: "MiB", Clock: count, Better: "lower", Moves: vOnly, On: []string{"serve-densenet", "train-cnn"}},
	{Name: "sgx.gflop_charged_per_op", Unit: "GFLOP", Clock: count, Better: "lower", Moves: vOnly, On: []string{"serve-densenet", "train-cnn"}},
	{Name: "tf.train_step_ms", Unit: "ms", Clock: wall, Better: "lower", Moves: cpuOnly, On: []string{"train-cnn"}},
	{Name: "tf.fed_local_step_ms", Unit: "ms", Clock: wall, Better: "lower", Moves: cpuOnly, On: []string{"fed-secagg"}},
	{Name: "dist.begin_step_ms", Unit: "ms", Clock: wall, Better: "lower", Moves: cpuAndV, On: []string{"train-cnn"}},
	{Name: "dist.finish_step_ms", Unit: "ms", Clock: wall, Better: "lower", Moves: cpuAndV, On: []string{"train-cnn"}},
	{Name: "dist.vpull_ms", Unit: "vms", Clock: virtual, Better: "lower", Moves: cpuAndV, On: []string{"train-cnn"}},
	{Name: "dist.vcompute_ms", Unit: "vms", Clock: virtual, Better: "lower", Moves: cpuAndV, On: []string{"train-cnn"}},
	{Name: "dist.vpush_ms", Unit: "vms", Clock: virtual, Better: "lower", Moves: cpuAndV, On: []string{"train-cnn"}},
	{Name: "dist.push_kb_per_round", Unit: "KiB", Clock: count, Better: "lower", Moves: cpuAndV, On: []string{"train-cnn"}},
	{Name: "seccrypto.prg_ns_per_word", Unit: "ns/word", Clock: wall, Better: "lower", Moves: cpuAndV, On: []string{"fed-secagg"}},
	{Name: "federated.uplink_kb_per_round", Unit: "KiB", Clock: count, Better: "lower", Moves: cpuAndV, On: []string{"fed-secagg"}},
	{Name: "federated.accept_ratio", Unit: "ratio", Clock: count, Better: "higher", Moves: cpuAndV, On: []string{"fed-secagg"}},
	{Name: "federated.reveals_per_round", Unit: "count", Clock: count, Better: "lower", Moves: cpuAndV, On: []string{"fed-secagg"}},
	{Name: "fsshield.model_load_ms", Unit: "ms", Clock: wall, Better: "lower", Moves: setup, On: []string{"serve-digitize"}},
	{Name: "cas.provision_ms", Unit: "ms", Clock: wall, Better: "lower", Moves: setup, On: []string{"serve-digitize", "train-cnn"}},
	{Name: "cas.attest_vms", Unit: "vms", Clock: virtual, Better: "lower", Moves: setup, On: []string{"serve-digitize", "train-cnn"}},
	{Name: "datasets.generate_ms", Unit: "ms", Clock: wall, Better: "lower", Moves: setup, On: []string{"serve-digitize", "train-cnn"}},
	{Name: "trace.overhead_pct", Unit: "%", Clock: wall, Better: "lower", On: allW},
}

// rank is the 1-based nearest-rank index of the p-th percentile of n
// samples.
func rank(n, p int) int {
	r := (p*n + 99) / 100
	return max(r, 1)
}

// beyond is how many of n samples lie above the p-th percentile.
func beyond(n, p int) int { return n - rank(n, p) }

// percentile is the nearest-rank p-th percentile of xs (NaN if empty).
// A failed operation enters a latency sample as +Inf, so it counts as
// missing any latency limit.
func percentile(xs []float64, p int) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), p)-1]
}

// tail is the p-th percentile of a latency sample. It refuses to report
// unless at least ten samples lie beyond it, so a short run fails
// instead of reporting a weaker percentile.
func tail(xs []float64, p int) (float64, error) {
	if b := beyond(len(xs), p); b < 10 {
		return 0, fmt.Errorf("p%d of %d samples has %d beyond it, want at least 10: the run was too short for its tail percentile", p, len(xs), b)
	}
	return percentile(xs, p), nil
}

// throughputChunks is how many consecutive pieces of a run its
// wall-clock throughput is measured over; the printed ops_per_s is
// their median, so a short stall on the shared host moves one piece,
// not the result.
const throughputChunks = 10

// chunkRate splits the completion times of a run (offsets from its
// start, each completing per units of work) into up to k pieces of
// equal operation count and returns the median of their rates.
func chunkRate(done []time.Duration, per float64, k int) float64 {
	if len(done) == 0 {
		return math.NaN()
	}
	s := slices.Clone(done)
	slices.Sort(s)
	k = min(k, len(s))
	var rates []float64
	var prev time.Duration
	for i := 1; i <= k; i++ {
		lo, hi := (i-1)*len(s)/k, i*len(s)/k
		end := s[hi-1]
		rates = append(rates, float64(hi-lo)*per/(end-prev).Seconds())
		prev = end
	}
	return percentile(rates, 50)
}

// enclaveDelta sums the per-container counter advances between two
// snapshots of the same containers.
func enclaveDelta(before, after []securetf.EnclaveStats) securetf.EnclaveStats {
	var d securetf.EnclaveStats
	for i := range before {
		d.Transitions += after[i].Transitions - before[i].Transitions
		d.AsyncSyscalls += after[i].AsyncSyscalls - before[i].AsyncSyscalls
		d.PageFaults += after[i].PageFaults - before[i].PageFaults
		d.BytesAccessed += after[i].BytesAccessed - before[i].BytesAccessed
		d.ComputeFLOPs += after[i].ComputeFLOPs - before[i].ComputeFLOPs
	}
	return d
}

// perOp spreads an enclave counter delta over ops operations.
func perOp(d securetf.EnclaveStats, ops int) map[string]float64 {
	n := float64(max(ops, 1))
	return map[string]float64{
		"sgx.transitions_per_op":      float64(d.Transitions) / n,
		"scone.async_syscalls_per_op": float64(d.AsyncSyscalls) / n,
		"sgx.page_faults_per_op":      float64(d.PageFaults) / n,
		"sgx.mb_accessed_per_op":      float64(d.BytesAccessed) / (1 << 20) / n,
		"sgx.gflop_charged_per_op":    float64(d.ComputeFLOPs) / 1e9 / n,
	}
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// resetPeakRSS restarts the process's resident-set high-water mark at
// its current resident set.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// peakRSSMiB reads the process's resident-set high-water mark.
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 3 && fields[0] == "VmHWM:" && fields[2] == "kB" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return d.Seconds() * 1000 }
