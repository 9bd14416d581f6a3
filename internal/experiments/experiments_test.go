package experiments

import (
	"testing"
	"time"

	"github.com/securetf/securetf/internal/models"
)

// These tests assert the SHAPE of every figure against the paper: which
// system wins, rough factors, and where crossovers fall. Absolute
// latencies come from the calibrated virtual-time model and are not
// asserted here; the training figures additionally pin their
// deterministic outputs (losses, push bytes, wire time) exactly, and
// BENCH_baseline.json records the gated benchmark values.

func findFig4(t *testing.T, rows []Fig4Row, system string) Fig4Row {
	t.Helper()
	for _, r := range rows {
		if r.System == system {
			return r
		}
	}
	t.Fatalf("no row for %q", system)
	return Fig4Row{}
}

func TestFigure4Shape(t *testing.T) {
	rows, err := Figure4(Config{})
	if err != nil {
		t.Fatal(err)
	}
	ias := findFig4(t, rows, "IAS")
	cas := findFig4(t, rows, "secureTF CAS")

	// Paper: IAS total ≈ 325 ms, CAS ≈ 17 ms (≈ 19×); verification leg
	// ≈ 280 ms vs < 1 ms.
	if ias.WaitConfirmation < 250*time.Millisecond {
		t.Errorf("IAS wait-confirmation = %v, want WAN scale (~280 ms)", ias.WaitConfirmation)
	}
	if cas.WaitConfirmation > 5*time.Millisecond {
		t.Errorf("CAS wait-confirmation = %v, want local scale (<1-5 ms)", cas.WaitConfirmation)
	}
	ratio := float64(ias.Total()) / float64(cas.Total())
	if ratio < 8 || ratio > 40 {
		t.Errorf("IAS/CAS total ratio = %.1f, paper reports ≈19x", ratio)
	}
	// Initialization is flow-independent (same client-side setup).
	initRatio := float64(ias.Initialization) / float64(cas.Initialization)
	if initRatio < 0.5 || initRatio > 2 {
		t.Errorf("initialization legs diverge: %v vs %v", ias.Initialization, cas.Initialization)
	}
}

// fig5For indexes rows by (system, model).
func fig5For(t *testing.T, rows []Fig5Row, system, model string) Fig5Row {
	t.Helper()
	for _, r := range rows {
		if r.System == system && r.Model == model {
			return r
		}
	}
	t.Fatalf("no row for %s/%s", system, model)
	return Fig5Row{}
}

func TestFigure5Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("builds paper-size models")
	}
	rows, err := Figure5(Config{Runs: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range models.PaperModels() {
		native := fig5For(t, rows, "Native glibc", spec.Name)
		musl := fig5For(t, rows, "Native musl", spec.Name)
		sim := fig5For(t, rows, "Sim", spec.Name)
		hw := fig5For(t, rows, "HW", spec.Name)
		graphene := fig5For(t, rows, "Graphene", spec.Name)

		// Paper: Sim within ~5% of native; musl and glibc near parity.
		simOver := float64(sim.Latency) / float64(native.Latency)
		if simOver < 0.97 || simOver > 1.12 {
			t.Errorf("%s: Sim/native = %.3f, paper ~1.05", spec.Name, simOver)
		}
		muslOver := float64(musl.Latency) / float64(native.Latency)
		if muslOver < 0.98 || muslOver > 1.10 {
			t.Errorf("%s: musl/glibc = %.3f, paper near parity", spec.Name, muslOver)
		}
		// HW slower than Sim but bounded (paper 1.12–1.39x).
		hwOver := float64(hw.Latency) / float64(sim.Latency)
		if hwOver < 1.05 || hwOver > 1.6 {
			t.Errorf("%s: HW/Sim = %.3f, paper 1.12–1.39", spec.Name, hwOver)
		}
		// Graphene never meaningfully beats secureTF HW.
		if float64(graphene.Latency) < 0.95*float64(hw.Latency) {
			t.Errorf("%s: Graphene (%v) beat HW (%v)", spec.Name, graphene.Latency, hw.Latency)
		}
	}

	// Crossover: comparable at 42 MB, HW clearly ahead at 163 MB (paper
	// 1.03x → ~1.4x).
	g42 := fig5For(t, rows, "Graphene", "densenet")
	h42 := fig5For(t, rows, "HW", "densenet")
	small := float64(g42.Latency) / float64(h42.Latency)
	if small > 1.2 {
		t.Errorf("densenet: Graphene/HW = %.2f, paper ~1.03 (comparable under EPC)", small)
	}
	g163 := fig5For(t, rows, "Graphene", "inception_v4")
	h163 := fig5For(t, rows, "HW", "inception_v4")
	big := float64(g163.Latency) / float64(h163.Latency)
	if big < 1.15 || big > 2.2 {
		t.Errorf("inception_v4: Graphene/HW = %.2f, paper ~1.4", big)
	}
	if big <= small {
		t.Errorf("Graphene/HW gap must grow with model size: %.2f -> %.2f", small, big)
	}
}

func TestFigure6Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("builds paper-size models")
	}
	// Densenet alone is enough to check the FSPF overhead band.
	rows, err := Figure6(Config{Runs: 20, Models: []models.InferenceSpec{models.Densenet}})
	if err != nil {
		t.Fatal(err)
	}
	byLabel := map[string]Fig6Row{}
	for _, r := range rows {
		byLabel[r.System] = r
	}
	for _, mode := range []string{"Sim", "HW"} {
		plain := byLabel[mode]
		shielded := byLabel[mode+" w/ FSPF"]
		overhead := float64(shielded.Latency)/float64(plain.Latency) - 1
		// Paper: 0.12% (Sim) and 0.9% (HW). Anything under ~3% counts as
		// the "negligible" shape; negative would mean mismeasurement.
		if overhead < -0.005 || overhead > 0.03 {
			t.Errorf("%s: FSPF overhead = %.2f%%, paper reports <1%%", mode, overhead*100)
		}
	}
}

func fig7For(t *testing.T, rows []Fig7Row, system, mode string, cores, nodes int) Fig7Row {
	t.Helper()
	for _, r := range rows {
		if r.System == system && r.Mode == mode && r.Cores == cores && r.Nodes == nodes {
			return r
		}
	}
	t.Fatalf("no row for %s/%s cores=%d nodes=%d", system, mode, cores, nodes)
	return Fig7Row{}
}

func TestFigure7Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("builds paper-size models")
	}
	rows, err := Figure7(Config{Images: 24})
	if err != nil {
		t.Fatal(err)
	}
	// Scale-up: everyone improves 1 -> 4 cores.
	for _, sys := range []string{"Native glibc", "Sim", "HW"} {
		one := fig7For(t, rows, sys, "scale-up", 1, 0)
		four := fig7For(t, rows, sys, "scale-up", 4, 0)
		if float64(one.Latency)/float64(four.Latency) < 2.5 {
			t.Errorf("%s: 1->4 cores speedup %.2f, want near-linear", sys, float64(one.Latency)/float64(four.Latency))
		}
	}
	// 4 -> 8: Sim keeps improving (hyper-threads), HW regresses (EPC).
	sim4 := fig7For(t, rows, "Sim", "scale-up", 4, 0)
	sim8 := fig7For(t, rows, "Sim", "scale-up", 8, 0)
	if sim8.Latency >= sim4.Latency {
		t.Errorf("Sim did not improve 4->8 threads: %v -> %v", sim4.Latency, sim8.Latency)
	}
	hw4 := fig7For(t, rows, "HW", "scale-up", 4, 0)
	hw8 := fig7For(t, rows, "HW", "scale-up", 8, 0)
	if hw8.Latency <= hw4.Latency {
		t.Errorf("HW kept scaling 4->8 threads (%v -> %v); paper: EPC stops it", hw4.Latency, hw8.Latency)
	}
	// Scale-out: HW scales with nodes (paper: 1180 s -> 403 s at 3 nodes).
	hw1 := fig7For(t, rows, "HW", "scale-out", 4, 1)
	hw3 := fig7For(t, rows, "HW", "scale-out", 4, 3)
	speedup := float64(hw1.Latency) / float64(hw3.Latency)
	if speedup < 2.0 {
		t.Errorf("HW scale-out 1->3 nodes speedup = %.2f, paper ≈2.9", speedup)
	}
}

func fig8For(t *testing.T, rows []Fig8Row, system string, workers int) Fig8Row {
	t.Helper()
	for _, r := range rows {
		if r.System == system && r.Workers == workers {
			return r
		}
	}
	t.Fatalf("no row for %s workers=%d", system, workers)
	return Fig8Row{}
}

func TestFigure8Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("runs distributed training across 15 configurations")
	}
	rows, err := Figure8(Config{Steps: 6, BatchSize: 50})
	if err != nil {
		t.Fatal(err)
	}
	native := fig8For(t, rows, "Native", 1)
	simNoTLS := fig8For(t, rows, "secureTF SIM w/o TLS", 1)
	simTLS := fig8For(t, rows, "secureTF SIM", 1)
	hwTLS := fig8For(t, rows, "secureTF HW", 1)

	// Ordering: native < SIM w/o TLS < SIM < HW.
	if !(native.Latency < simNoTLS.Latency && simNoTLS.Latency < simTLS.Latency && simTLS.Latency < hwTLS.Latency) {
		t.Errorf("ordering broken: native %v, sim-notls %v, sim %v, hw %v",
			native.Latency, simNoTLS.Latency, simTLS.Latency, hwTLS.Latency)
	}
	// Paper factors: HW ≈14x, SIM ≈6x, SIM w/o TLS ≈2.3x native.
	if r := float64(hwTLS.Latency) / float64(native.Latency); r < 6 || r > 40 {
		t.Errorf("HW/native = %.1f, paper ≈14", r)
	}
	if r := float64(simTLS.Latency) / float64(native.Latency); r < 2.5 || r > 12 {
		t.Errorf("SIM/native = %.1f, paper ≈6", r)
	}
	if r := float64(simNoTLS.Latency) / float64(native.Latency); r < 1.3 || r > 5 {
		t.Errorf("SIM-w/o-TLS/native = %.1f, paper ≈2.3", r)
	}
	// Scaling: HW speedup with 3 workers ≈ 2.57x in the paper.
	hw3 := fig8For(t, rows, "secureTF HW", 3)
	if s := float64(hwTLS.Latency) / float64(hw3.Latency); s < 1.6 {
		t.Errorf("HW 3-worker speedup = %.2f, paper ≈2.57", s)
	}
	// Training must actually learn.
	if hwTLS.FinalLoss >= 2.4 {
		t.Errorf("final loss %.3f did not move below initial ~2.3+", hwTLS.FinalLoss)
	}
	// Exact pins: the trained loss is a function of seed and worker
	// count alone — the runtime and the network shield change time, not
	// math — so every system's row at a worker count agrees bit for bit.
	wantLoss := map[int]float64{1: 2.305243492126465, 2: 2.3044819831848145, 3: 2.3044846852620444}
	for _, r := range rows {
		if r.FinalLoss != wantLoss[r.Workers] {
			t.Errorf("%s workers=%d: final loss %v, pinned %v", r.System, r.Workers, r.FinalLoss, wantLoss[r.Workers])
		}
	}
}

func TestFigure8ShardSweepShape(t *testing.T) {
	if testing.Short() {
		t.Skip("runs distributed training across 5 cluster configurations")
	}
	rows, err := Figure8Shards(Config{Steps: 8, BatchSize: 50})
	if err != nil {
		t.Fatal(err)
	}
	get := func(workers, shards int) Fig8ShardRow {
		for _, r := range rows {
			if r.Workers == workers && r.Shards == shards {
				return r
			}
		}
		t.Fatalf("no row for workers=%d shards=%d", workers, shards)
		return Fig8ShardRow{}
	}
	// The classic worker-scaling speedup survives the sharded refactor.
	if s := get(2, 1).Speedup1W; s < 1.5 {
		t.Errorf("2-worker speedup = %.2f, paper ≈1.96", s)
	}
	// The sharding headline: per-shard push wire time drops monotonically
	// as the same 4-worker job fans its gradients over 1 → 2 → 4 shards.
	w1, w2, w4 := get(4, 1).PushWirePerShard, get(4, 2).PushWirePerShard, get(4, 4).PushWirePerShard
	if !(w1 > w2 && w2 > w4) {
		t.Errorf("per-shard push wire not monotonically decreasing: 1 shard %v, 2 shards %v, 4 shards %v", w1, w2, w4)
	}
	// Sharding is a placement decision, not a math change: the trained
	// loss at 4 workers must agree across shard counts (up to float
	// summation order across concurrent pushes).
	base := get(4, 1).FinalLoss
	for _, shards := range []int{2, 4} {
		if loss := get(4, shards).FinalLoss; loss < base*0.99 || loss > base*1.01 {
			t.Errorf("4-worker loss at %d shards = %.4f, want ≈ %.4f", shards, loss, base)
		}
	}
	// Exact pins: push wire time is byte arithmetic over the cost
	// model, and the PS sums contributions in worker-id order, so both
	// are deterministic functions of seed and config.
	for _, pin := range []struct {
		workers, shards int
		wire            time.Duration
	}{
		{1, 1, 13138728}, {2, 1, 26277456}, {4, 1, 52554912}, {4, 2, 26278688}, {4, 4, 13140576},
	} {
		if got := get(pin.workers, pin.shards).PushWirePerShard; got != pin.wire {
			t.Errorf("workers=%d shards=%d: push wire/shard %v, pinned %v", pin.workers, pin.shards, got, pin.wire)
		}
	}
	for _, shards := range []int{1, 2, 4} {
		if loss := get(4, shards).FinalLoss; loss != 2.3036476969718933 {
			t.Errorf("4-worker loss at %d shards = %v, pinned 2.3036476969718933", shards, loss)
		}
	}
}

func TestFigure8CompressShape(t *testing.T) {
	if testing.Short() {
		t.Skip("runs distributed training across 6 codec/TLS configurations")
	}
	rows, err := Figure8Compress(Config{Steps: 8, BatchSize: 50})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("expected 6 rows (3 codecs × TLS on/off), got %d", len(rows))
	}
	get := func(codec string, tls bool) Fig8CompressRow {
		for _, r := range rows {
			if r.Codec == codec && r.TLS == tls {
				return r
			}
		}
		t.Fatalf("no row for codec=%q tls=%v", codec, tls)
		return Fig8CompressRow{}
	}
	for _, tls := range []bool{false, true} {
		none, int8r, topk := get("none", tls), get("int8", tls), get("topk f=0.05", tls)
		// The wire headline: ≥3× fewer push bytes for int8, and top-k at
		// f=0.05 beats int8.
		if r := float64(none.PushBytesPerRound) / float64(int8r.PushBytesPerRound); r < 3 {
			t.Errorf("tls=%v: int8 push-byte reduction %.2fx, want ≥3x", tls, r)
		}
		if topk.PushBytesPerRound >= int8r.PushBytesPerRound {
			t.Errorf("tls=%v: top-k pushed %d B/round, not below int8's %d", tls, topk.PushBytesPerRound, int8r.PushBytesPerRound)
		}
		// Smaller frames must show up as less per-shard push wire vtime
		// by at least the same ≥3× factor: send() charges serialization
		// for the bytes actually framed, so this pins the "honest vtime"
		// half of the story. (End-to-end latency also drops, but it
		// carries run-to-run jitter from concurrent push arrival order,
		// so the assertions stick to the deterministic wire quantities.)
		if r := float64(none.PushWirePerShard) / float64(int8r.PushWirePerShard); r < 3 {
			t.Errorf("tls=%v: int8 push wire vtime reduction %.2fx, want ≥3x", tls, r)
		}
		if !(none.PushWirePerShard > int8r.PushWirePerShard && int8r.PushWirePerShard > topk.PushWirePerShard) {
			t.Errorf("tls=%v: push wire not monotone over codecs: none %v, int8 %v, topk %v",
				tls, none.PushWirePerShard, int8r.PushWirePerShard, topk.PushWirePerShard)
		}
		// The convergence guarantee: error feedback keeps the lossy
		// codecs' final loss within 10% of the uncompressed run.
		for _, r := range []Fig8CompressRow{int8r, topk} {
			if ratio := r.FinalLoss / none.FinalLoss; ratio < 0.9 || ratio > 1.1 {
				t.Errorf("tls=%v codec=%s: final loss %.4f vs uncompressed %.4f (ratio %.3f outside ±10%%)",
					tls, r.Codec, r.FinalLoss, none.FinalLoss, ratio)
			}
		}
	}
	// Exact pins: frame bytes, their wire time and the trained loss are
	// deterministic, and TLS changes none of them.
	pins := map[string]struct {
		bytes int64
		wire  time.Duration
		loss  float64
	}{
		"none":        {1642418, 26278688, 2.3036476969718933},
		"int8":        {410868, 6573888, 2.303647756576538},
		"topk f=0.05": {164594, 2633504, 2.3037086725234985},
	}
	for _, r := range rows {
		p := pins[r.Codec]
		if r.PushBytesPerRound != p.bytes || r.PushWirePerShard != p.wire || r.FinalLoss != p.loss {
			t.Errorf("codec=%s tls=%v: push %d B/round, wire/shard %v, loss %v; pinned %d, %v, %v",
				r.Codec, r.TLS, r.PushBytesPerRound, r.PushWirePerShard, r.FinalLoss, p.bytes, p.wire, p.loss)
		}
	}
}

func TestTFvsTFLiteShape(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 91 MB model twice")
	}
	rows, err := TFvsTFLite(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	tfRow, liteRow := rows[0], rows[1]
	ratio := float64(tfRow.Latency) / float64(liteRow.Latency)
	// Paper: 71x. The shape requirement is an order-of-magnitude-plus gap
	// caused by EPC behaviour.
	if ratio < 15 {
		t.Errorf("TF/TFLite ratio = %.1f, paper ≈71 (want >> 10)", ratio)
	}
	if tfRow.BinaryBytes < 40*liteRow.BinaryBytes {
		t.Errorf("binary size gap lost: %d vs %d", tfRow.BinaryBytes, liteRow.BinaryBytes)
	}
}
