package experiments

import (
	"fmt"
	"io"
	"time"

	securetf "github.com/securetf/securetf"
	"github.com/securetf/securetf/internal/models"
	"github.com/securetf/securetf/internal/tf"
)

// Fig8Row is one point of Figure 8: end-to-end distributed training
// latency for a system at a worker count.
type Fig8Row struct {
	System    string
	Workers   int
	Steps     int
	Latency   time.Duration
	FinalLoss float64
}

// fig8System describes one Figure 8 series.
type fig8System struct {
	label string
	kind  securetf.RuntimeKind
	tls   bool
}

func fig8Systems() []fig8System {
	return []fig8System{
		{"Native", securetf.NativeGlibc, false},
		{"secureTF SIM w/o TLS", securetf.SconeSIM, false},
		{"secureTF SIM", securetf.SconeSIM, true},
		{"secureTF HW w/o TLS", securetf.SconeHW, false},
		{"secureTF HW", securetf.SconeHW, true},
	}
}

// Figure8 reproduces the distributed training experiment (paper Fig. 8):
// synchronous data-parallel SGD on MNIST (batch 100, lr 0.0005) with
// 1/2/3 workers, across native, SIM and HW modes with and without the
// network shield. The paper's headline shapes: HW ≈ 14× native, SIM ≈ 6×
// with TLS and ≈ 2.3× without, and near-linear scaling with workers
// (speedups 1.96× and 2.57×).
func Figure8(cfg Config) ([]Fig8Row, error) {
	cfg = cfg.withDefaults()
	var rows []Fig8Row
	for _, sys := range fig8Systems() {
		for _, workers := range []int{1, 2, 3} {
			res, err := fig8Train(cfg, sys, workers, 1, securetf.NoGradCompression())
			if err != nil {
				return nil, fmt.Errorf("experiments: fig8 %s workers=%d: %w", sys.label, workers, err)
			}
			cfg.logf("fig8: %-22s workers=%d %9.2f s (loss %.3f)", sys.label, workers, res.Latency.Seconds(), res.FinalLoss)
			rows = append(rows, Fig8Row{
				System: sys.label, Workers: workers, Steps: cfg.Steps,
				Latency: res.Latency, FinalLoss: res.FinalLoss,
			})
		}
	}
	return rows, nil
}

// Fig8ShardRow is one point of the parameter-server shard sweep: the
// same training job with its variables hash-partitioned across Shards
// parameter-server nodes.
type Fig8ShardRow struct {
	System  string
	Workers int
	Shards  int
	Steps   int
	Latency time.Duration
	// PushWirePerShard is the mean per-shard, per-round virtual wire
	// time of the gradient pushes — the single-PS bandwidth bottleneck
	// sharding attacks. It shrinks as ~1/Shards because each shard's
	// link carries only its partition of every worker's gradients.
	PushWirePerShard time.Duration
	FinalLoss        float64
	// Speedup1W is this row's latency advantage over the 1-worker,
	// 1-shard baseline of the same system (the paper's scaling axis).
	Speedup1W float64
}

// Figure8Shards extends Figure 8 along the sharding axis the paper's
// §3.2/§5.4 architecture assumes: 1- and 2-worker baselines on a single
// PS (the classic speedup), then a fixed 4-worker job with the
// parameter server sharded across 1, 2 and 4 nodes. The headline shape:
// per-shard push wire time drops monotonically as shards are added,
// because each PS node receives only its name-hash partition of every
// worker's ~1.8 MB gradient push.
func Figure8Shards(cfg Config) ([]Fig8ShardRow, error) {
	cfg = cfg.withDefaults()
	sys := fig8System{"secureTF HW", securetf.SconeHW, true}
	var rows []Fig8ShardRow
	var base time.Duration
	for _, point := range []struct{ workers, shards int }{
		{1, 1}, {2, 1}, {4, 1}, {4, 2}, {4, 4},
	} {
		res, err := fig8Train(cfg, sys, point.workers, point.shards, securetf.NoGradCompression())
		if err != nil {
			return nil, fmt.Errorf("experiments: fig8 shards %s workers=%d shards=%d: %w",
				sys.label, point.workers, point.shards, err)
		}
		if base == 0 {
			base = res.Latency
		}
		row := Fig8ShardRow{
			System: sys.label, Workers: point.workers, Shards: point.shards, Steps: cfg.Steps,
			Latency: res.Latency, PushWirePerShard: res.PushWirePerShard,
			FinalLoss: res.FinalLoss, Speedup1W: float64(base) / float64(res.Latency),
		}
		cfg.logf("fig8-shards: %-22s workers=%d shards=%d %9.2f s (push wire/shard %v, speedup %.2fx)",
			sys.label, point.workers, point.shards, res.Latency.Seconds(), res.PushWirePerShard, row.Speedup1W)
		rows = append(rows, row)
	}
	return rows, nil
}

// PrintFigure8Shards renders the shard-sweep rows.
func PrintFigure8Shards(w io.Writer, rows []Fig8ShardRow) {
	fmt.Fprintln(w, "Figure 8 (sharded PS) — distributed training with a sharded parameter server")
	fmt.Fprintf(w, "%-24s %8s %7s %6s %12s %16s %10s\n", "system", "workers", "shards", "steps", "latency(s)", "push-wire/shard", "loss")
	for _, r := range rows {
		fmt.Fprintf(w, "%-24s %8d %7d %6d %12s %16s %10.3f\n",
			r.System, r.Workers, r.Shards, r.Steps, fmtDurS(r.Latency), r.PushWirePerShard, r.FinalLoss)
	}
}

// fig8LR is the learning rate of every training figure (the paper's
// 0.0005).
const fig8LR = 0.0005

// fig8Train trains the Figure 8 MNIST job through the facade's
// TrainDistributed: `workers` synchronous workers against a parameter
// server sharded across `shards` nodes, pushing through codec comp. The
// training task is fixed (cfg.Steps rounds of cfg.BatchSize samples at
// one worker); N workers split it into ceil(Steps/N) synchronous rounds
// of N·BatchSize global samples — the source of the near-linear speedup
// the paper reports. More PS shards fan the same parameter traffic
// across more nodes, shrinking the per-shard wire time that bottlenecks
// the single-PS deployment.
func fig8Train(cfg Config, sys fig8System, workers, shards int, comp securetf.GradCompression) (*securetf.DistTrainResult, error) {
	rounds := (cfg.Steps + workers - 1) / workers
	return securetf.TrainDistributed(securetf.DistTrainConfig{
		Kind:        sys.kind,
		TLS:         sys.tls,
		Workers:     workers,
		PSShards:    shards,
		Rounds:      rounds,
		BatchSize:   cfg.BatchSize,
		LR:          fig8LR,
		Compression: comp,
		NewModel:    func() securetf.Model { return models.MNISTCNN(1) },
		ShardData: func(w int) (*securetf.Tensor, *securetf.Tensor, error) {
			xs, ys := syntheticMNISTShard(cfg.BatchSize*rounds, int64(100+w))
			return xs, ys, nil
		},
	})
}

// syntheticMNISTShard builds an in-memory learnable MNIST-like shard
// without file I/O (the Figure 8 subject is training, not loading).
func syntheticMNISTShard(n int, seed int64) (*tf.Tensor, *tf.Tensor) {
	xs := tf.RandNormal(tf.Shape{n, 28, 28, 1}, 0.1, seed)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		cls := i % 10
		labels[i] = cls
		// Bright class-dependent row band.
		row := cls*2 + 4
		for x := 0; x < 28; x++ {
			xs.Floats()[(i*28+row)*28+x] += 1
		}
	}
	return xs, tf.OneHot(labels, 10)
}

// PrintFigure8 renders the rows.
func PrintFigure8(w io.Writer, rows []Fig8Row) {
	fmt.Fprintln(w, "Figure 8 — distributed training latency (s)")
	fmt.Fprintf(w, "%-24s %8s %6s %12s %10s\n", "system", "workers", "steps", "latency(s)", "loss")
	for _, r := range rows {
		fmt.Fprintf(w, "%-24s %8d %6d %12s %10.3f\n", r.System, r.Workers, r.Steps, fmtDurS(r.Latency), r.FinalLoss)
	}
}
