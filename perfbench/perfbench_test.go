package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	securetf "github.com/securetf/securetf"
)

func TestPercentileRule(t *testing.T) {
	for _, tc := range []struct{ n, p, rank, beyond int }{
		{1000, 99, 990, 10},
		{999, 99, 990, 9},
		{1, 99, 1, 0},
		{100, 90, 90, 10},
		{20, 50, 10, 10},
		{7, 50, 4, 3},
	} {
		if got := rank(tc.n, tc.p); got != tc.rank {
			t.Errorf("rank(%d, %d) = %d, want %d", tc.n, tc.p, got, tc.rank)
		}
		if got := beyond(tc.n, tc.p); got != tc.beyond {
			t.Errorf("beyond(%d, %d) = %d, want %d", tc.n, tc.p, got, tc.beyond)
		}
	}
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // unsorted on purpose
	}
	if got := percentile(xs, 50); got != 500 {
		t.Errorf("p50 = %v, want 500", got)
	}
	if got, err := tail(xs, 99); err != nil || got != 990 {
		t.Errorf("tail p99 of 1000 = %v, %v; want 990", got, err)
	}
	if _, err := tail(xs[:999], 99); err == nil {
		t.Error("tail p99 of 999 samples succeeded; it has only 9 beyond it")
	}
	// A failed operation is +Inf: it counts as missing any limit.
	failed := append([]float64{1, 2, 3}, math.Inf(1))
	if got := percentile(failed, 99); !math.IsInf(got, 1) {
		t.Errorf("p99 with a failure = %v, want +Inf", got)
	}
	if got := percentile(nil, 50); !math.IsNaN(got) {
		t.Errorf("percentile of nothing = %v, want NaN", got)
	}
}

func TestSelfTime(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Req: 1, Name: "request", Start: 0, End: 100 * ms},
		// Two overlapping children cover 10..50 once.
		{ID: 2, Parent: 1, Req: 1, Name: "a", Start: 10 * ms, End: 40 * ms},
		{ID: 3, Parent: 1, Req: 1, Name: "b", Start: 20 * ms, End: 50 * ms},
		// A child running past its parent counts only inside it.
		{ID: 4, Parent: 1, Req: 1, Name: "c", Start: 90 * ms, End: 120 * ms},
		// A grandchild is its parent's child, not the root's.
		{ID: 5, Parent: 2, Req: 1, Name: "a1", Start: 15 * ms, End: 25 * ms},
		{ID: 6, Req: 6, Name: "other", Start: 0, End: 5 * ms},
	}
	self := selfTimes(spans)
	for id, want := range map[int64]time.Duration{
		1: 100*ms - 40*ms - 10*ms,
		2: 30*ms - 10*ms,
		3: 30 * ms,
		4: 30 * ms,
		5: 10 * ms,
		6: 5 * ms,
	} {
		if self[id] != want {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], want)
		}
	}
	stats := summarize(spans)
	if stats[0].Name != "request" || stats[0].SelfTotal != 50*ms {
		t.Errorf("largest self time = %+v, want request with 50ms", stats[0])
	}
	if got := medianDur(spans, "b"); got != 30*ms {
		t.Errorf("medianDur(b) = %v, want 30ms", got)
	}
}

func TestTracerRecordsOnlyWhenTracing(t *testing.T) {
	var off *tracer
	s := off.root("x")
	s.child("y").end()
	if d := s.end(); d < 0 {
		t.Errorf("untraced span duration %v", d)
	}
	if got := off.snapshot(); got != nil {
		t.Errorf("nil tracer recorded %v", got)
	}
	on := newTracer()
	r := on.root("req")
	r.child("call").end()
	r.end()
	on.root("next").end()
	spans := on.snapshot()
	if len(spans) != 3 {
		t.Fatalf("recorded %d spans, want 3", len(spans))
	}
	if spans[0].Parent != spans[1].ID || spans[0].Req != spans[1].Req {
		t.Errorf("child %+v does not share its parent %+v's request", spans[0], spans[1])
	}
	if spans[2].Req == spans[1].Req {
		t.Error("a new root reused the previous request id")
	}
}

func TestPerOpCounterDeltas(t *testing.T) {
	before := []securetf.EnclaveStats{
		{Transitions: 10, AsyncSyscalls: 100, PageFaults: 1, BytesAccessed: 1 << 20, ComputeFLOPs: 1e9},
		{Transitions: 5},
	}
	after := []securetf.EnclaveStats{
		{Transitions: 30, AsyncSyscalls: 140, PageFaults: 5, BytesAccessed: 5 << 20, ComputeFLOPs: 3e9},
		{Transitions: 25, AsyncSyscalls: 20},
	}
	d := enclaveDelta(before, after)
	want := securetf.EnclaveStats{Transitions: 40, AsyncSyscalls: 60, PageFaults: 4, BytesAccessed: 4 << 20, ComputeFLOPs: 2e9}
	if d != want {
		t.Fatalf("delta = %+v, want %+v", d, want)
	}
	per := perOp(d, 4)
	for name, v := range map[string]float64{
		"sgx.transitions_per_op":      10,
		"scone.async_syscalls_per_op": 15,
		"sgx.page_faults_per_op":      1,
		"sgx.mb_accessed_per_op":      1,
		"sgx.gflop_charged_per_op":    0.5,
	} {
		if per[name] != v {
			t.Errorf("%s = %v, want %v", name, per[name], v)
		}
	}
	if got := perOp(d, 0)["sgx.transitions_per_op"]; got != 40 {
		t.Errorf("zero ops divides by %v, want the whole delta", got)
	}
}

func TestMakespanIsBusiestClock(t *testing.T) {
	before := []time.Duration{0, 10, 100}
	after := []time.Duration{5, 40, 110}
	if got := makespan(before, after); got != 30 {
		t.Errorf("makespan = %v, want 30", got)
	}
}

func TestLiteFLOPsFromShapes(t *testing.T) {
	spec := densenetSpec()
	m := securetf.BuildInferenceModel(spec)
	// The dense stack's weights are its only parameters, and each
	// contributes one multiply-add per row.
	want := 2 * m.WeightBytes() / 4
	if got := liteFLOPs(m); got != want {
		t.Errorf("densenet FLOPs per row = %d, want %d", got, want)
	}
	cnn, err := liteOf(securetf.NewMNISTCNN(1), 1)
	if err != nil {
		t.Fatal(err)
	}
	// conv1 28x28x8 over 5x5x1, conv2 14x14x16 over 5x5x8, fc 784x512
	// and 512x10.
	want = 2 * (28*28*8*25 + 14*14*16*200 + 784*512 + 512*10)
	if got := liteFLOPs(cnn); got != want {
		t.Errorf("MNIST CNN FLOPs per row = %d, want %d", got, want)
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json, which the
// benchmark driver reads, in step with the metrics this program emits.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, defs []metricDef, names, units, better []string) {
		if len(names) != len(defs) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(names), len(defs))
		}
		for i, d := range defs {
			if names[i] != d.Name || units[i] != d.Unit || better[i] != d.Better {
				t.Errorf("%s metric %d: BENCHMARK.json %s %s %s, program %s %s %s",
					kind, i, names[i], units[i], better[i], d.Name, d.Unit, d.Better)
			}
		}
	}
	var names, units, better []string
	for _, m := range b.EndToEnd {
		names, units, better = append(names, m.Name), append(units, m.Unit), append(better, m.Better)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	check("end_to_end", endToEnd, names, units, better)
	names, units, better = nil, nil, nil
	for _, m := range b.PerLayer {
		names, units, better = append(names, m.Name), append(units, m.Unit), append(better, m.Better)
	}
	check("per_layer", perLayer, names, units, better)
	for _, d := range perLayer {
		if d.Name != "trace.overhead_pct" && (len(d.Moves) == 0 || len(d.On) == 0) {
			t.Errorf("%s names no end-to-end metric or workload it should move", d.Name)
		}
		for _, e := range d.Moves {
			if !strings.Contains(string(raw), `"`+e+`"`) {
				t.Errorf("%s moves unknown end-to-end metric %s", d.Name, e)
			}
		}
	}
}

func TestChunkRate(t *testing.T) {
	s := time.Second
	// 20 operations: ten pieces of two. One piece stalls for 10s; the
	// median ignores it.
	var done []time.Duration
	at := time.Duration(0)
	for i := 0; i < 20; i++ {
		at += s / 2
		if i == 7 {
			at += 10 * s
		}
		done = append(done, at)
	}
	if got := chunkRate(done, 3, 10); got != 6 {
		t.Errorf("chunk rate = %v, want 6 (two ops of 3 units per second)", got)
	}
	// Fewer operations than pieces: each operation is its own piece.
	if got := chunkRate([]time.Duration{2 * s, s}, 1, 10); got != 1 {
		t.Errorf("chunk rate of two = %v, want 1", got)
	}
	if got := chunkRate(nil, 1, 10); !math.IsNaN(got) {
		t.Errorf("chunk rate of nothing = %v, want NaN", got)
	}
}
