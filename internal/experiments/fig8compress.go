package experiments

import (
	"fmt"
	"io"
	"time"

	securetf "github.com/securetf/securetf"
)

// Fig8CompressRow is one point of the gradient-compression sweep: the
// fixed 4-worker, 2-shard training job pushed through one codec, with
// and without the network shield's TLS.
type Fig8CompressRow struct {
	// Codec labels the push-path gradient codec: "none", "int8" or
	// "topk f=…".
	Codec string
	// TLS marks the rows whose parameter traffic runs through the
	// network shield — the paper's Figure 8 "w/ TLS" series, whose gap
	// to the plain rows is exactly a wire-bytes story.
	TLS     bool
	Workers int
	Shards  int
	Steps   int
	// Latency is the end-to-end virtual time of the job.
	Latency time.Duration
	// PushWirePerShard is the mean per-shard, per-round virtual wire
	// time of the gradient pushes; it shrinks with the codec exactly as
	// the frame bytes do.
	PushWirePerShard time.Duration
	// PushBytesPerRound is the mean wire bytes of one worker's full
	// gradient push per round (summed over shards) — the quantity the
	// codec exists to shrink, independent of the bandwidth cost model.
	PushBytesPerRound int64
	// FinalLoss is the mean final minibatch loss over workers; the
	// lossy codecs' error-feedback residuals keep it within tolerance
	// of the uncompressed run.
	FinalLoss float64
}

// Figure8Compress extends Figure 8 along the wire-volume axis: the same
// 4-worker, 2-shard MNIST job pushed through each gradient codec —
// none (raw float32), int8 (per-tensor symmetric quantization, ~4×)
// and top-k at f = 0.05 (sparse index+value frames, ~10×+) — with and
// without TLS. The headline shape: push bytes and per-shard push wire
// time drop by the codec's ratio while the final loss stays within a
// few percent, because the worker-side error-feedback residual re-adds
// every rounded or dropped gradient entry to a later step.
func Figure8Compress(cfg Config) ([]Fig8CompressRow, error) {
	cfg = cfg.withDefaults()
	const workers, shards = 4, 2
	codecs := []struct {
		label string
		comp  securetf.GradCompression
	}{
		{"none", securetf.NoGradCompression()},
		{"int8", securetf.Int8GradCompression()},
		{"topk f=0.05", securetf.TopKGradCompression(0.05)},
	}
	systems := []fig8System{
		{"secureTF HW w/o TLS", securetf.SconeHW, false},
		{"secureTF HW", securetf.SconeHW, true},
	}
	var rows []Fig8CompressRow
	for _, sys := range systems {
		for _, codec := range codecs {
			res, err := fig8Train(cfg, sys, workers, shards, codec.comp)
			if err != nil {
				return nil, fmt.Errorf("experiments: fig8 compress %s tls=%v: %w", codec.label, sys.tls, err)
			}
			row := Fig8CompressRow{
				Codec: codec.label, TLS: sys.tls, Workers: workers, Shards: shards, Steps: cfg.Steps,
				Latency: res.Latency, PushWirePerShard: res.PushWirePerShard,
				PushBytesPerRound: res.PushBytes / int64(workers*res.Rounds), FinalLoss: res.FinalLoss,
			}
			cfg.logf("fig8-compress: %-12s tls=%-5v %9.2f s  push %7d B/round (wire/shard %v, loss %.4f)",
				row.Codec, row.TLS, row.Latency.Seconds(), row.PushBytesPerRound, row.PushWirePerShard, row.FinalLoss)
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// PrintFigure8Compress renders the compression-sweep rows.
func PrintFigure8Compress(w io.Writer, rows []Fig8CompressRow) {
	fmt.Fprintln(w, "Figure 8 (compressed push) — gradient codecs on the push path")
	fmt.Fprintf(w, "%-14s %5s %8s %7s %6s %12s %14s %16s %10s\n",
		"codec", "tls", "workers", "shards", "steps", "latency(s)", "push-B/round", "push-wire/shard", "loss")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %5v %8d %7d %6d %12s %14d %16s %10.4f\n",
			r.Codec, r.TLS, r.Workers, r.Shards, r.Steps, fmtDurS(r.Latency),
			r.PushBytesPerRound, r.PushWirePerShard, r.FinalLoss)
	}
}
